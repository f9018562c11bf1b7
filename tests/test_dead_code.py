"""No function in the package that nothing calls.

Code that only the tests call belongs in ``tests/oracles.py``.  The check
matches by name: a definition counts as used when its name appears as a
variable or an attribute anywhere in ``src/fdivrisk/`` outside its own body.
So a method whose name another function or method shares (a method of one
model used, the same-named method of the other not) is not caught.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fdivrisk"

# Called from outside the package only.
ENTRY_POINTS = frozenset(
    {
        # the command line
        "main",
        # the Library section of README.md
        "e_beta_gamma_numeric",
        "hellinger_bound",
        "hellinger_divergence",
        "hockey_stick_bound",
        "optimize_parameters",
        "small_ball_coefficient",
        # the benchmark harness in perfbench/
        "bayes_risk_reference",
        "exact_bernoulli_risk",
        "simulate_risk",
    }
)


def _definitions(tree: ast.Module):
    """Module-level functions and the methods of module-level classes, with
    their qualified names."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield f"{node.name}.{method.name}", method


def _used_names(node: ast.AST) -> list[str]:
    return [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    counts: dict[str, int] = {}
    for tree in trees.values():
        for name in _used_names(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name.startswith("__") or name in ENTRY_POINTS:
                continue
            own = _used_names(node).count(name)
            if counts.get(name, 0) - own == 0:
                unused.append(f"{module}: {qualname}")
    return unused


def test_every_function_is_used_in_the_package():
    assert unused_definitions() == []


def test_an_unused_function_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class C:\n    def method(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import unused\n")
    assert unused_definitions(tmp_path) == ["a.py: unused", "a.py: recursive", "a.py: C.method"]
