"""No function in the package that nothing calls, no parameter default that
no call overrides, and no name defined twice without a stated reason.

Code that only the tests call belongs in ``tests/oracles.py``.  The checks
match by name: a definition counts as used when its name appears as a
variable or an attribute anywhere in ``src/fdivrisk/`` outside its own body,
and a parameter with a default counts as set when some call in the package
to a function or method of that name passes it, by position or by keyword.
Matching by name cannot tell two definitions of one name apart, so every
name that more than one function or method defines must be listed in
``SHARED_NAMES`` with the reason it is defined twice.
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

# Names that more than one function or method defines, and why.  A use of
# one definition counts as a use of every other, so each listed name must
# be used, or set, for each definition on its own.
SHARED_NAMES = {
    "simulate_risk": "the risk oracle of each model, called through risk_report for either",
    "small_ball_coefficient": "the envelope coefficient c of each model, read by every bound",
}


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


def _trees(package: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def unused_definitions(package: Path = PACKAGE) -> list[str]:
    trees = _trees(package)
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


def shared_names(package: Path = PACKAGE) -> list[str]:
    """Names, dunders aside, that more than one definition carries."""
    seen: dict[str, int] = {}
    for tree in _trees(package).values():
        for _, node in _definitions(tree):
            if not node.name.startswith("__"):
                seen[node.name] = seen.get(node.name, 0) + 1
    return sorted(name for name, count in seen.items() if count > 1)


def _defaulted(node: ast.FunctionDef, is_method: bool) -> list[tuple[str, int | None]]:
    """The parameters with a default, each with the index at which a
    positional argument of a call sets it (None if keyword-only)."""
    positional = node.args.posonlyargs + node.args.args
    skip = 1 if is_method else 0
    first = len(positional) - len(node.args.defaults)
    params = [(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
    params += [
        (arg.arg, None)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
        if default is not None
    ]
    return params


def _calls(trees: dict[str, ast.Module]) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    if index is None:
        return False
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return len(call.args) > index


def unset_parameters(package: Path = PACKAGE) -> list[str]:
    """``"<function>: <parameter>, ..."`` for every parameter with a
    default that no call in the package sets."""
    trees = _trees(package)
    calls = _calls(trees)
    unset = []
    for tree in trees.values():
        for qualname, node in _definitions(tree):
            if node.name in ENTRY_POINTS:
                continue
            params = [
                name
                for name, index in _defaulted(node, "." in qualname)
                if not any(_sets(call, name, index) for call in calls.get(node.name, []))
            ]
            if params:
                unset.append(f"{qualname}: {', '.join(params)}")
    return unset


def test_every_function_is_used_in_the_package():
    assert unused_definitions() == []


def test_every_default_is_overridden_in_the_package():
    assert unset_parameters() == []


def test_every_shared_name_is_listed():
    assert shared_names() == sorted(SHARED_NAMES)


def test_an_unused_function_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return used()\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "class C:\n    def method(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import unused\n")
    assert unused_definitions(tmp_path) == ["a.py: unused", "a.py: recursive", "a.py: C.method"]


def test_an_unset_default_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, z=2, *, k=3, j=4):\n    return x\n\n"
        "class C:\n    def m(self, a=1, b=2):\n        return a\n\n"
        "def g(u=1):\n    return u\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import C, f, g\n"
        "f(0, 1, j=5)\n"
        "C().m(7)\n"
        "g(**{})\n"
    )
    assert unset_parameters(tmp_path) == ["f: z, k", "C.m: b"]


def test_a_shared_name_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f():\n    return 1\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n    def f(self):\n        return 2\n\n"
        "class D:\n    def __init__(self):\n        pass\n\n    def g(self):\n        return 3\n"
    )
    (tmp_path / "b.py").write_text("class E:\n    def g(self):\n        return 4\n")
    assert shared_names(tmp_path) == ["f", "g"]
