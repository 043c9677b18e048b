"""In-memory span tracing of calls into subposet_lab's layers, from outside.

The tracer replaces the public functions of each package module with timing
wrappers, in the defining module and in every package module that imported
them by name (`subposet_lab.cli.alpha` is `subposet_lab.solver.alpha`), and
restores them on `uninstall`. Nothing under `src/` changes.

Two recording modes:

- span: one record per call, `[id, parent, name, layer, start, end, info]`;
- aggregate: for hot functions (`EmbeddingSearch.embeds_using` runs ~1.6 M
  times per cube-exact pass, the `bound_*` helpers tens of thousands of times)
  a count, a summed time and a hit count per (parent span, name). A call to an
  aggregated function made inside another aggregated call is counted but not
  timed, so no interval is counted twice.

A span's self time is its duration minus the durations of its child spans and
of its aggregated children. Only one thread runs traced code, so children
never overlap.
"""

from __future__ import annotations

import time
from fractions import Fraction
from types import FunctionType, ModuleType

LAYERS = ("families", "posets", "solver", "bounds", "embedder", "cli")

# Calls made in inner loops: recorded as aggregates, not spans.
_AGGREGATED = {
    "posets": {"EmbeddingSearch.embeds_using"},
    "bounds": {
        "to_interval", "log2_interval", "exact_log2", "log2_coefficient",
        "ceil_log2", "coefficient_str", "coefficient_float", "certainly_less",
        "certainly_le", "coefficient_min", "bound_burcsi_nagy", "bound_chen_li",
        "bound_main", "bound_corollary_interval", "bound_dk", "bound_dk_any",
        "bound_product_composition", "bound_corollary_diamond",
        "lower_bound_complete_multilevel",
    },
}
# Class methods traced besides the module-level functions.
_METHODS = {"posets": {"EmbeddingSearch": ("__init__", "embeds_using")}}
# cli.main is the one public entry point of the cli layer.
_ONLY = {"cli": {"main"}}

# Span record fields.
ID, PARENT, NAME, LAYER, START, END, INFO = range(7)


class Tracer:
    """Spans and aggregates of one traced region, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.agg: dict[tuple[int, str], list] = {}  # -> [count, seconds, hits, layer]
        self._stack = [-1]
        self._agg_depth = [0]
        self._patches: list[tuple[object, str, object]] = []

    # --- recording ---------------------------------------------------------------

    def open(self, name: str, layer: str, info=None) -> list:
        rec = [len(self.spans), self._stack[-1], name, layer, 0.0, 0.0, info]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        rec[START] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    def span_wrapper(self, layer: str, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1], name, layer, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if on_result is not None:
                rec[6] = on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def agg_wrapper(self, layer: str, name: str, fn, is_hit=None):
        agg, stack, depth, clock = self.agg, self._stack, self._agg_depth, time.perf_counter
        last = [None, None]  # (parent, entry) of the previous call: skips the dict

        def traced(*args, **kwargs):
            parent = stack[-1]
            if last[0] == parent:
                entry = last[1]
            else:
                entry = agg.get((parent, name))
                if entry is None:
                    entry = agg[(parent, name)] = [0, 0.0, 0, layer]
                last[0], last[1] = parent, entry
            entry[0] += 1
            if depth[0]:
                result = fn(*args, **kwargs)
            else:
                depth[0] = 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    entry[1] += clock() - t0
                    depth[0] = 0
            if result is True if is_hit is None else is_hit(result):
                entry[2] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # --- patching ----------------------------------------------------------------

    def install(self, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        """Wrap every public function of each layer module everywhere it is bound."""
        importers = [package] + list(modules.values())
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if (
                    name.startswith("_")
                    or not isinstance(obj, FunctionType)
                    or obj.__module__ != mod.__name__
                    or (layer in _ONLY and name not in _ONLY[layer])
                ):
                    continue
                wrapped = self._wrap(layer, f"{layer}.{name}", obj)
                for target in importers:
                    for attr, value in list(vars(target).items()):
                        if value is obj:
                            self._patch(target, attr, wrapped)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(layer, name, vars(cls)[meth]))

    def _wrap(self, layer: str, name: str, fn):
        if name.partition(".")[2] in _AGGREGATED.get(layer, ()):
            return self.agg_wrapper(layer, name, fn, None if name.endswith("embeds_using") else _interval_report)
        return self.span_wrapper(layer, name, fn, _RESULT_INFO.get(name))

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def _interval_report(result) -> bool:
    coeff = getattr(result, "coefficient", None)
    return coeff is not None and not isinstance(coeff, Fraction)


def _alpha_info(result):
    return (result.nodes_explored, result.exhaustive)


def _greedy_info(result):
    return result[1]  # the GreedyTrace; counted after the run, outside any span


_RESULT_INFO = {"solver.alpha": _alpha_info, "embedder.greedy_embed": _greedy_info}


# --- analysis ---------------------------------------------------------------------


def self_times(spans: list[list], agg: dict) -> list[float]:
    """Self time of every span: duration minus child spans and aggregates."""
    own = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            own[rec[PARENT]] -= rec[END] - rec[START]
    for (parent, _), entry in agg.items():
        if parent >= 0:
            own[parent] -= entry[1]
    return own


def layer_self_seconds(spans: list[list], agg: dict) -> dict[str, float]:
    """Self seconds per layer; spans of other layers (the op roots) count as harness."""
    own = self_times(spans, agg)
    totals = {layer: 0.0 for layer in LAYERS}
    totals["harness"] = 0.0
    for rec in spans:
        totals[rec[LAYER] if rec[LAYER] in totals else "harness"] += own[rec[ID]]
    for entry in agg.values():
        totals[entry[3]] += entry[1]
    return totals


def outermost(spans: list[list], names: set[str]) -> list[list]:
    """Spans named in `names` that have no ancestor named in `names`."""
    covered: set[int] = set()
    result = []
    for rec in spans:
        if rec[PARENT] in covered:
            covered.add(rec[ID])
        elif rec[NAME] in names:
            covered.add(rec[ID])
            result.append(rec)
    return result


def empty_wrapper_ns(calls: int = 200_000) -> float:
    """Cost per call, in ns, that an aggregate wrapper adds to an empty function."""

    def empty(x):
        return x

    tracer = Tracer()
    wrapped = tracer.agg_wrapper("posets", "empty", empty)
    clock = time.perf_counter
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        t0 = clock()
        for i in range(calls):
            empty(i)
        t1 = clock()
        for i in range(calls):
            wrapped(i)
        t2 = clock()
        best_plain = min(best_plain, t1 - t0)
        best_wrapped = min(best_wrapped, t2 - t1)
    return (best_wrapped - best_plain) / calls * 1e9
