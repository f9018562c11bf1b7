"""Layer tracing for the fdivrisk benchmark, applied from outside the package.

Run as a script, it executes one CLI invocation with every public fdivrisk
function wrapped in a span recorder, then writes the spans and counters:

    python3 perfbench/tracer.py OUT_PREFIX CLI_ARG...

The exit code and standard output are the CLI's own.  ``OUT_PREFIX.npz``
holds the spans (name id, start, end, parent index, outermost flag) and
``OUT_PREFIX.json`` the span names and counters.  ``summarize`` reads them
back, and ``layer_metrics`` turns them into the per-layer metrics.

Wrapping happens at every binding: ``from .x import y`` copies a function
into the importing module, so each module namespace is patched, not only the
defining one.  Scalar special functions that run once per integrand
evaluation get no span; a span would cost more than the work it times, so
their time counts to the caller's self time.  The integrands passed to the
quadrature, root-finding and golden-section kernels are counted, not timed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from array import array

LEAF_HELPERS = frozenset(
    {"log_comb", "log_norm_pdf", "norm_cdf", "norm_pdf", "regularized_incomplete_beta"}
)
# Kernel -> counter suffix for the evaluations of the callable it is given.
COUNTED_CALLABLES = {
    "adaptive_quadrature": "integrand_evals",
    "bisect_root": "f_evals",
    "golden_section_max": "f_evals",
}
# Span names that differ from "<module>.<function>".
RENAMED = {"hellinger_divergence": "divergences.hellinger"}
# Function -> (counter suffix, argument whose value is added to it).
WORK_ARGUMENTS = {
    "simulate_risk": ("samples", "samples"),
    "brute_force_divergence": ("grid_points", "grid_points"),
}
TRACED_METHODS = (("BernoulliModel", "simulate_risk"), ("GaussianModel", "simulate_risk"))


class Tracer:
    """Spans kept in flat arrays in memory; written out once, at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.outer = array("b")
        self._stack = [-1]
        self.counters: dict[str, int] = {}

    def span_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, *, classify=None, counted=None, work=None):
        """Return ``fn`` wrapped in a span named ``name`` (or ``classify(args)``).

        ``counted`` names the counter for calls of the callable passed as the
        first argument; ``work`` is (counter, argument name) for work that an
        argument states, such as a sample count.
        """
        fixed = self.span_id(name) if classify is None else None
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if classify is None else self.span_id(classify(args))
            cell = None
            if counted is not None:
                cell = [0]
                f = args[0]

                def counting(x):
                    cell[0] += 1
                    return f(x)

                args = (counting,) + args[1:]
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.add(work[0], int(bound.arguments[work[1]]))
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.outer.append(self._active[nid] == 0)
            self.end.append(0.0)
            self._active[nid] += 1
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
                self._active[nid] -= 1
                if cell is not None:
                    self.add(counted, cell[0])

        return traced

    def install(self) -> None:
        """Wrap every public fdivrisk function in every module that binds it."""
        import fdivrisk.cli  # noqa: F401  (imports every layer the CLI uses)

        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "fdivrisk"]
        wrappers = {}
        for module in modules:
            for value in vars(module).values():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__.startswith("fdivrisk.")
                    and not value.__name__.startswith("_")
                    and value.__name__ not in LEAF_HELPERS
                    and value not in wrappers
                ):
                    wrappers[value] = self._wrap_function(value)
        for module in modules:
            for key, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, key, wrappers[value])

        models = sys.modules["fdivrisk.models"]
        for cls_name, method in TRACED_METHODS:
            cls = getattr(models, cls_name)
            setattr(cls, method, self._wrap_function(vars(cls)[method]))

    def _wrap_function(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        base = fn.__name__
        name = RENAMED.get(base, f"{layer}.{base}")
        counted = f"{name}.{COUNTED_CALLABLES[base]}" if base in COUNTED_CALLABLES else None
        work = None
        if base in WORK_ARGUMENTS:
            suffix, argument = WORK_ARGUMENTS[base]
            work = (f"{name}.{suffix}", argument)
        classify = None
        if base == "e_beta_gamma_numeric":
            bernoulli = sys.modules["fdivrisk.models"].BernoulliModel

            def classify(args):
                kind = "bernoulli" if isinstance(args[0], bernoulli) else "gaussian"
                return f"divergences.e_beta_gamma.{kind}"
        return self.wrap(fn, name, classify=classify, counted=counted, work=work)

    def cache_counts(self) -> dict[str, int]:
        """Hits and misses of the lru_caches held by fdivrisk.bounds."""
        hits = misses = 0
        for value in vars(sys.modules["fdivrisk.bounds"]).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                stats = info()
                hits += stats.hits
                misses += stats.misses
        return {"bounds.cache_hits": hits, "bounds.cache_misses": misses}

    def write(self, prefix: str) -> None:
        import numpy as np

        np.savez(
            prefix + ".npz",
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            outer=np.frombuffer(self.outer, dtype=np.int8).astype(bool),
        )
        counters = dict(self.counters)
        counters.update(self.cache_counts())
        with open(prefix + ".json", "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "counters": counters}, handle, sort_keys=True)


# --------------------------------------------------------------------------
# Reading a trace back
# --------------------------------------------------------------------------

DIVERGENCE_SPANS = ("divergences.e_beta_gamma.", "divergences.hellinger")
SEARCH_SPAN = "bounds.optimize_parameters"


def summarize(prefix: str) -> dict:
    """Per-name calls, inclusive and self time, per-layer self time, counters.

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous, so children never overlap.  Inclusive
    time sums only the outermost span of each name, so a recursive call is
    not counted twice.
    """
    import numpy as np

    with open(prefix + ".json", encoding="utf-8") as handle:
        meta = json.load(handle)
    names = meta["names"]
    spans = np.load(prefix + ".npz")
    nid, parent, outer = spans["name"], spans["parent"], spans["outer"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_time = dur - child
    size = len(names)
    calls = np.bincount(nid, minlength=size)
    inclusive = np.bincount(nid[outer], weights=dur[outer], minlength=size)
    own = np.bincount(nid, weights=self_time, minlength=size)

    # Divergence evaluations made under a parameter search (the caches mean
    # one per distinct parameter point, not one per lookup).
    under_search = np.zeros(len(nid), dtype=bool)
    if SEARCH_SPAN in names:
        under_search = nid == names.index(SEARCH_SPAN)
        while True:
            spread = under_search.copy()
            spread[nested] |= under_search[parent[nested]]
            if np.array_equal(spread, under_search):
                break
            under_search = spread
    is_divergence = np.array([n.startswith(DIVERGENCE_SPANS) for n in names], dtype=bool)
    search_evals = int(np.count_nonzero(under_search & is_divergence[nid]))

    layers: dict[str, float] = {}
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + float(own[i])
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(names)},
        "s": {name: float(inclusive[i]) for i, name in enumerate(names)},
        "self_s": {name: float(own[i]) for i, name in enumerate(names)},
        "layer_self_s": layers,
        "counters": dict(meta["counters"], **{"bounds.search_div_evals": search_evals}),
    }


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the invocations that make up one pass."""
    total: dict = {"calls": {}, "s": {}, "self_s": {}, "layer_self_s": {}, "counters": {}}
    for summary in summaries:
        for section, values in summary.items():
            for key, value in values.items():
                total[section][key] = total[section].get(key, 0) + value
    return total


def counts(summary: dict) -> dict[str, int]:
    """The deterministic part of a summary: calls and counters."""
    return {**{f"calls:{k}": v for k, v in summary["calls"].items()}, **summary["counters"]}


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metric values (without units) from one pass's summary."""
    calls, s, self_s = summary["calls"], summary["s"], summary["self_s"]
    layer, counter = summary["layer_self_s"], summary["counters"]
    optima = calls.get(SEARCH_SPAN, 0)
    hits = counter.get("bounds.cache_hits", 0)
    lookups = hits + counter.get("bounds.cache_misses", 0)
    out = {
        "bounds.optimize_parameters.calls": optima,
        "bounds.div_evals_per_optimum": counter["bounds.search_div_evals"] / optima if optima else 0.0,
        "bounds.cache_lookups": lookups,
        "bounds.cache_hit_ratio": hits / lookups if lookups else 0.0,
    }
    for name in (
        "divergences.e_beta_gamma.bernoulli",
        "divergences.e_beta_gamma.gaussian",
        "divergences.hellinger",
        "numerics.adaptive_quadrature",
        "numerics.bisect_root",
        "numerics.golden_section_max",
        "numerics.beta_median",
        "models.simulate_risk",
        "validation.exact_bernoulli_risk",
        "validation.brute_force_divergence",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = s.get(name, 0.0)
    out["divergences.e_beta_gamma.bernoulli.self_s"] = self_s.get("divergences.e_beta_gamma.bernoulli", 0.0)
    for key in (
        "numerics.adaptive_quadrature.integrand_evals",
        "numerics.bisect_root.f_evals",
        "numerics.golden_section_max.f_evals",
        "models.simulate_risk.samples",
        "validation.brute_force_divergence.grid_points",
    ):
        out[key] = counter.get(key, 0)
    out["validation.certification_suite.s"] = s.get("validation.certification_suite", 0.0)
    out["svg.render_line_plot.s"] = s.get("svg.render_line_plot", 0.0)
    for name in ("bounds", "cli", "divergences", "models", "numerics", "validation"):
        out[f"{name}.self_s"] = layer.get(name, 0.0)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT_PREFIX CLI_ARG...", file=sys.stderr)
        return 2
    prefix, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["fdivrisk.cli"]
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
