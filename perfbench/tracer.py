"""Outside-in tracer for rrcalc: wraps public functions of each module.

Nothing inside the package changes.  `install()` replaces every binding
of each wrapped function -- the defining module's attribute, each copy
that another module imported with ``from .x import name``, and class
aliases such as ``__rmul__ = __mul__`` -- with one wrapper per metric
name.  A wrapper keeps a span stack in memory: on exit a span's self time
is its duration minus the time of the wrapped spans it directly
contains, so recursion (a twisted `pushforward` calling `pushforward`)
is billed once.  Work the wrappers do not see, such as `Fraction`
arithmetic, lands in the self time of the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("series", "rings", "bundles", "theories", "applications", "acceptance", "cli")

# metric name -> (module, owner class or None, attribute names)
WRAPPED = {
    "series.mul": ("series", "TruncatedSeries", ("__mul__",)),
    "series.inverse": ("series", "TruncatedSeries", ("inverse",)),
    "series.compose": ("series", "TruncatedSeries", ("compose",)),
    "series.reversion": ("series", "TruncatedSeries", ("reversion",)),
    "rings.mul": ("rings", "RingElement", ("__mul__",)),
    "rings.add": ("rings", "RingElement", ("__add__", "__sub__")),
    "rings.pow": ("rings", "RingElement", ("__pow__",)),
    "rings.inverse": ("rings", "RingElement", ("inverse",)),
    "rings.element": ("rings", "RingElement", ("__init__",)),
    "rings.eval_series": ("rings", None, ("eval_series",)),
    "bundles.newton_e_to_p": ("bundles", None, ("newton_e_to_p",)),
    "bundles.newton_p_to_e": ("bundles", None, ("newton_p_to_e",)),
    "bundles.additive_extension": ("bundles", None, ("additive_extension",)),
    "bundles.multiplicative_extension": ("bundles", None, ("multiplicative_extension",)),
    "bundles.todd_class": ("bundles", None, ("todd_class",)),
    "bundles.chern_character": ("bundles", None, ("chern_character",)),
    "bundles.character_rows": ("bundles", None, ("character_rows",)),
    "bundles.todd_rows": ("bundles", None, ("todd_rows",)),
    "theories.law": ("theories", "TheoryModel", ("law",)),
    "theories.pushforward": ("theories", None, ("pushforward",)),
    "theories.pullback": ("theories", None, ("pullback",)),
    "theories.universal_morphism": ("theories", None, ("universal_morphism",)),
    "theories.diagonal_class": ("theories", None, ("diagonal_class",)),
    "theories.metric_check": ("theories", None, ("metric_check",)),
    "theories.morphisms": (
        "theories",
        None,
        (
            "point_projection",
            "factor_projection",
            "linear_immersion",
            "tangent_class",
            "space_tangent",
            "k_line_class",
        ),
    ),
    "applications.verify_grr": ("applications", None, ("verify_grr",)),
    "applications.euler_characteristic_pn": ("applications", None, ("euler_characteristic_pn",)),
    "acceptance.run_criterion": ("acceptance", None, ("run_criterion",)),
    "cli.run": ("cli", None, ("run",)),
}

CRITERIA = tuple(f"acceptance.c{number:02d}.s" for number in range(1, 11))

# Per-layer metrics in the order BENCHMARK.json lists them: name -> unit.
METRICS: dict[str, str] = {}
for _name in WRAPPED:
    METRICS[f"{_name}.calls"] = "count"
    METRICS[f"{_name}.self_s"] = "s"
METRICS.update(
    {
        "series.mul.coeff_pairs": "count",
        "series.reversion.distinct_ratio": "1",
        "rings.mul.term_pairs": "count",
        "rings.mul.kept_ratio": "1",
        "bundles.todd_class.distinct_ratio": "1",
    }
)
METRICS.update({name: "s" for name in CRITERIA})
METRICS.update({f"{layer}.self_s": "s" for layer in LAYERS})
METRICS.update({"trace.verdict_s": "s", "trace.overhead_ratio": "1"})

# Metrics that must repeat exactly for the same seed (the determinism check).
DETERMINISTIC = tuple(
    name
    for name in METRICS
    if name.endswith((".calls", "_pairs", "_ratio")) and not name.startswith("trace.")
)


class Tracer:
    """Per-name call counts, outermost-call counts, self time and work counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.outermost: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)
        self.criterion_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()

    def wrap(self, name, function, after=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            if not tracer._depth[name]:
                tracer.outermost[name] += 1
            tracer._depth[name] += 1
            frame = [0.0]  # time covered by directly nested wrapped spans
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.self_s[name] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
            if after is not None:
                after(tracer, args, result, elapsed)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* pair, which needs two runs."""
        out: dict[str, float] = {}
        for name in WRAPPED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["series.mul.coeff_pairs"] = self.work["series.mul.coeff_pairs"]
        out["series.reversion.distinct_ratio"] = _ratio(
            len(self.distinct["series.reversion"]), self.calls["series.reversion"]
        )
        out["rings.mul.term_pairs"] = self.work["rings.mul.term_pairs"]
        out["rings.mul.kept_ratio"] = _ratio(
            self.work["rings.mul.kept_terms"], self.work["rings.mul.term_pairs"]
        )
        out["bundles.todd_class.distinct_ratio"] = _ratio(
            len(self.distinct["bundles.todd_class"]), self.calls["bundles.todd_class"]
        )
        for number, name in enumerate(CRITERIA, start=1):
            out[name] = self.criterion_s[number]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self.self_s[name] for name in WRAPPED if name.startswith(layer + ".")
            )
        return out


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _series_pairs(tracer, args, result, elapsed):
    left, right = args
    if not hasattr(right, "coefficients"):
        return  # scalar times series: no coefficient pairs
    n = min(len(left.coefficients), len(right.coefficients)) - 1
    nonzero = [j for j, b in enumerate(right.coefficients[: n + 1]) if b != 0]
    pairs = 0
    for i, a in enumerate(left.coefficients[: n + 1]):
        if a != 0:
            pairs += sum(1 for j in nonzero if j <= n - i)
    tracer.work["series.mul.coeff_pairs"] += pairs


def _reversion_input(tracer, args, result, elapsed):
    tracer.distinct["series.reversion"].add(args[0].coefficients)


def _ring_pairs(tracer, args, result, elapsed):
    left, right = args
    if not hasattr(right, "terms") or not hasattr(result, "terms"):
        return  # scalar multiple or NotImplemented: no term pairs
    tracer.work["rings.mul.term_pairs"] += len(left.terms) * len(right.terms)
    tracer.work["rings.mul.kept_terms"] += len(result.terms)


def _todd_input(tracer, args, result, elapsed):
    bundle = args[0]
    chern = bundle.total_chern
    key = (bundle.rank, chern.spec, frozenset(chern.terms.items()))
    tracer.distinct["bundles.todd_class"].add(key)


def _criterion_time(tracer, args, result, elapsed):
    tracer.criterion_s[result.number] += elapsed


AFTER = {
    "series.mul": _series_pairs,
    "series.reversion": _reversion_input,
    "rings.mul": _ring_pairs,
    "bundles.todd_class": _todd_input,
    "acceptance.run_criterion": _criterion_time,
}


def install() -> Tracer:
    """Import every rrcalc module, wrap the functions in WRAPPED, return the tracer."""
    modules = {layer: importlib.import_module(f"rrcalc.{layer}") for layer in LAYERS}
    tracer = Tracer()
    originals = {}
    for name, (layer, owner, attributes) in WRAPPED.items():
        home = modules[layer] if owner is None else getattr(modules[layer], owner)
        for attribute in attributes:
            function = vars(home)[attribute]
            originals[id(function)] = (function, tracer.wrap(name, function, AFTER.get(name)))
    # Every rrcalc module and every class they define or import can hold a copy.
    owners = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rrcalc"]
    owners += [
        value
        for module in list(owners)
        for value in list(vars(module).values())
        if isinstance(value, type) and value.__module__.startswith("rrcalc")
    ]
    for owner in owners:
        for key, value in list(vars(owner).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(owner, key, entry[1])
    return tracer
