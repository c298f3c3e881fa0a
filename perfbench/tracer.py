"""Span tracer for the funbox package, installed from outside it.

Every public function defined in a funbox module is wrapped, and the wrapper
is bound into every funbox namespace that holds the original: the modules
import each other's functions by name (``from .parameters import fun_graph``),
so patching only the defining module would miss most calls. ``Graph.__init__``
is wrapped on the class. ``SplitMix64.next_u64`` only counts draws, since a
span per draw would cost more than the draw. ``campaigns._run_one`` marks
campaign-instance boundaries so that spans carry the instance as their item.

Spans (name, start, end, parent span, item id) are kept in flat arrays while
the round runs and are summarised or written out only after it ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array

MODULES = (
    "graphs",
    "rng",
    "parameters",
    "intervals",
    "constructions",
    "geometry",
    "campaigns",
    "cli",
)

SETUP_ITEM = -1

BUILDERS = (
    "geometry.graph_from_boxes",
    "geometry.incidence_graph",
    "intervals.graph_from_intervals",
)


def _edges(g) -> int:
    return sum(r.bit_count() for r in g.rows) // 2


def _sweep_subsets(args, result) -> int:
    return 1 << args[0].n


def _pairs_boxes(args, result) -> int:
    m = len(args[0].boxes)
    return m * (m - 1) // 2


def _pairs_incidence(args, result) -> int:
    return len(args[0]) * len(args[1].boxes)


def _pairs_intervals(args, result) -> int:
    m = len(args[0].intervals)
    return m * (m - 1) // 2


# Work counts computed from each call's inputs and outputs.
_COUNTERS = {
    "parameters.fun_graph": {"subsets": _sweep_subsets},
    "parameters.sd_graph": {"subsets": _sweep_subsets},
    "geometry.graph_from_boxes": {"pairs": _pairs_boxes, "edges": lambda a, r: _edges(r)},
    "geometry.incidence_graph": {"pairs": _pairs_incidence, "edges": lambda a, r: _edges(r)},
    "intervals.graph_from_intervals": {
        "pairs": _pairs_intervals,
        "edges": lambda a, r: _edges(r),
    },
    "graphs.Graph": {"vertices": lambda a, r: a[0].n},
}


class Tracer:
    """Records one span per call of every wrapped funbox function."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_item = SETUP_ITEM
        self.counts: dict[str, int] = {}
        self.setup_draws = 0
        self.draws = 0
        self.instances = 0
        self._next_item = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- items --------------------------------------------------------------

    def new_item(self) -> None:
        """Start a new item; later spans carry its id."""
        self.current_item = self._next_item
        self._next_item += 1

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, counters=None):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, item = self.span_name, self.parent, self.item
        start, end, stack = self.start, self.end, self.stack
        counts = self.counts
        keyed = [(f"{name}.{stat}", count) for stat, count in (counters or {}).items()]
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            item.append(tracer.current_item)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                stack.pop()
            if keyed and tracer.current_item != SETUP_ITEM:
                for key, count in keyed:
                    counts[key] = counts.get(key, 0) + count(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _rebind(self, namespaces, original, replacement) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._undo.append((ns, attr, original))

    def install(self) -> None:
        package = importlib.import_module("funbox")
        mods = {short: importlib.import_module(f"funbox.{short}") for short in MODULES}
        namespaces = [package, *mods.values()]
        targets = []
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not inspect.isgeneratorfunction(obj)
                ):
                    targets.append((f"{short}.{attr}", obj))
        for name, fn in targets:
            self._rebind(namespaces, fn, self._wrap(name, fn, _COUNTERS.get(name)))

        graph_cls = mods["graphs"].Graph
        init = graph_cls.__init__
        graph_cls.__init__ = self._wrap("graphs.Graph", init, _COUNTERS["graphs.Graph"])
        self._undo.append((graph_cls, "__init__", init))

        rng_cls = mods["rng"].SplitMix64
        next_u64 = rng_cls.next_u64
        tracer = self

        def counted_next_u64(rng):
            if tracer.current_item == SETUP_ITEM:
                tracer.setup_draws += 1
            else:
                tracer.draws += 1
            return next_u64(rng)

        rng_cls.next_u64 = counted_next_u64
        self._undo.append((rng_cls, "next_u64", next_u64))

        campaigns = mods["campaigns"]
        run_one = campaigns._run_one

        def run_one_item(task):
            outer = tracer.current_item
            tracer.new_item()
            tracer.instances += 1
            try:
                return run_one(task)
            finally:
                tracer.current_item = outer

        campaigns._run_one = run_one_item
        self._undo.append((campaigns, "_run_one", run_one))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def layer_table(self, timed_wall_s: float) -> dict[str, float]:
        """calls and self time per span name over the timed section (item >= 0).

        Self time is a span's duration minus the durations of its direct
        children, which are nested inside it.
        """
        n = len(self.span_name)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            if self.item[i] == SETUP_ITEM:
                continue
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
        table: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for nid, name in enumerate(self.names):
            table[f"{name}.calls"] = calls[nid]
            table[f"{name}.self_s"] = self_s[nid]
            module_self[name.split(".", 1)[0]] += self_s[nid]
        for module, total in module_self.items():
            table[f"{module}.all.self_s"] = total
            table[f"{module}.all.self_share"] = total / timed_wall_s
        for name, fn_counters in _COUNTERS.items():
            for stat in fn_counters:
                table[f"{name}.{stat}"] = self.counts.get(f"{name}.{stat}", 0)
        for name in BUILDERS:
            pairs = table[f"{name}.pairs"]
            table[f"{name}.edges_per_pair"] = table[f"{name}.edges"] / pairs if pairs else 0.0
        table["campaigns.verify_campaign.instances"] = self.instances
        table["rng.SplitMix64.draws"] = self.draws
        table["rng.SplitMix64.setup_draws"] = self.setup_draws
        table["bench.trace.spans"] = n
        return table

    def write_spans(self, path) -> None:
        """Write every span, columnar, as gzip-compressed JSON."""
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "item": self.item.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
