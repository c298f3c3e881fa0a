"""One measured round of a perfbench workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload exact --seed 1 --trace 0

The round imports funbox from the checkout's ``src``, builds the workload's
inputs from the seed (set-up), runs every item once in a closed loop with a
single client (the timed section), then checks the outputs. It prints one
JSON object on its last stdout line. run.py starts one worker per round, so
every round pays a cold import and starts with cold caches, as a CLI user
does.

An untraced round times set-up, the timed section and every item with
clock.RefClock, in reference seconds, and also records the raw wall and CPU
times. A traced round records raw times only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"


def _graph_seeds(seed: int, count: int) -> list[int]:
    from funbox.rng import SplitMix64

    rng = SplitMix64(seed)
    return [rng.next_u64() for _ in range(count)]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Exact:
    """Exact graph-level sweeps and the vertex-level hitting-set kernel.

    Items: sd_graph and fun_graph (max_n=n) on seeded G(n,1/2) at n=15,16,17
    and on seeded interval graphs at n=15,16, then fun_vertex on every vertex
    of seeded G(32,1/2). No intersection builder runs in the timed section.
    """

    RANDOM_SIZES = (15, 15, 16, 17)
    INTERVAL_SIZES = (15, 15, 15, 16, 16)
    VERTEX_GRAPHS = 3
    VERTEX_N = 32

    def __init__(self, seed: int):
        from funbox.campaigns import random_graph, random_interval_rep
        from funbox.intervals import graph_from_intervals

        counts = len(self.RANDOM_SIZES) + len(self.INTERVAL_SIZES) + self.VERTEX_GRAPHS
        seeds = iter(_graph_seeds(seed, counts))
        self.graphs = [("gnp", random_graph(n, 1, 2, next(seeds))) for n in self.RANDOM_SIZES]
        self.graphs += [
            ("interval", graph_from_intervals(random_interval_rep(n, next(seeds), 1000)))
            for n in self.INTERVAL_SIZES
        ]
        self.vertex_graphs = [
            random_graph(self.VERTEX_N, 1, 2, next(seeds)) for _ in range(self.VERTEX_GRAPHS)
        ]

    def items(self):
        import funbox.parameters as P

        for _, g in self.graphs:
            yield lambda g=g: P.sd_graph(g, max_n=g.n)
            yield lambda g=g: P.fun_graph(g, max_n=g.n)
        for g in self.vertex_graphs:
            for y in range(g.n):
                yield lambda g=g, y=y: P.fun_vertex(g, y)

    def check(self, outcomes, span_ms):
        """Per-item pass flags, the item latencies and the answers."""
        from funbox.parameters import witness_is_valid

        ok = [o.error is None for o in outcomes]
        answers = {"graphs": [], "fun_vertex": []}
        pos = 0
        for kind, g in self.graphs:
            sd, fun = outcomes[pos].value, outcomes[pos + 1].value
            answers["graphs"].append([kind, g.n, sd, fun])
            if ok[pos] and ok[pos + 1] and not fun <= sd + 1:
                ok[pos] = ok[pos + 1] = False
            pos += 2
        for g in self.vertex_graphs:
            ks = []
            for _ in range(g.n):
                if ok[pos]:
                    k, w = outcomes[pos].value
                    ok[pos] = witness_is_valid(g, w) and w.arity == k
                    ks.append(k)
                else:
                    ks.append(None)
                pos += 1
            answers["fun_vertex"].append(ks)
        return ok, [span_ms(o.start, o.end) for o in outcomes], answers

    def compare(self, ok, answers, expected):
        """Mark items whose answer differs from the recorded one."""
        pos = 0
        for got, want in zip(answers["graphs"], expected["graphs"]):
            if got != want:
                ok[pos] = ok[pos + 1] = False
            pos += 2
        for got, want in zip(answers["fun_vertex"], expected["fun_vertex"]):
            for a, b in zip(got, want):
                if a != b:
                    ok[pos] = False
                pos += 1


class Realize:
    """Geometric realizations: the O(m^2) intersection builders on large m.

    Items: realize_pointbox_plane then embed_pointbox_r3 for H^n_i, and
    seeded ABC graphs (fixed sizes, seeded B-permutation) each generated,
    realized as unit squares and as intervals, and given to
    find_low_fun_witness. The many small ABC items put at least ten items
    beyond the tail percentile. The exact sweeps never run here.
    """

    POINTBOX = ((4, 4), (5, 4), (6, 3))
    LARGE_ABC = tuple(range(60, 101, 5))
    SMALL_ABC = tuple(range(5, 35)) * 2

    def __init__(self, seed: int):
        from funbox.campaigns import random_permutation

        sizes = self.LARGE_ABC + self.SMALL_ABC
        seeds = _graph_seeds(seed, len(sizes))
        self.abc = [(n, random_permutation(n, s)) for n, s in zip(sizes, seeds)]

    def items(self):
        import funbox.constructions as C
        import funbox.geometry as G
        import funbox.intervals as I

        for n, i in self.POINTBOX:

            def pointbox(n=n, i=i):
                pts, bs, _ = G.realize_pointbox_plane(n, i)
                return pts, bs, G.embed_pointbox_r3(pts, bs)

            yield pointbox
        for n, perm in self.abc:

            def abc(n=n, perm=perm):
                g, meta = C.abc_graph(n, perm)
                parts = meta.parts["A"], meta.parts["B"], meta.parts["C"]
                squares, _ = G.realize_abc_unit_squares(g, *parts)
                rep, _ = G.realize_abc_intervals(g, *parts)
                pts = I.normalize(rep)
                return g, squares, rep, pts, I.find_low_fun_witness(pts)

            yield abc

    def check(self, outcomes, span_ms):
        """Re-derive every realized graph and compare it with the generator's."""
        from funbox.constructions import point_box_incidence
        from funbox.geometry import graph_from_boxes, incidence_graph
        from funbox.graphs import equal_labeled
        from funbox.intervals import graph_from_intervals, graph_from_points
        from funbox.parameters import witness_is_valid

        ok = [o.error is None for o in outcomes]
        answers = {"pointbox": [], "abc": []}
        for pos, (n, i) in enumerate(self.POINTBOX):
            if not ok[pos]:
                continue
            pts, bs, bs3 = outcomes[pos].value
            target, _ = point_box_incidence(n, i)
            plane = incidence_graph(pts, bs)
            ok[pos] = equal_labeled(plane, target) and equal_labeled(
                graph_from_boxes(bs3), target
            )
            answers["pointbox"].append([n, i, len(pts), len(bs.boxes), target.edge_count()])
        for pos in range(len(self.POINTBOX), len(outcomes)):
            if not ok[pos]:
                continue
            g, squares, rep, pts, w = outcomes[pos].value
            ok[pos] = (
                equal_labeled(graph_from_boxes(squares), g)
                and squares.is_unit()
                and equal_labeled(graph_from_intervals(rep), g)
                and witness_is_valid(graph_from_points(pts), w)
                and w.arity <= 8
            )
            answers["abc"].append([g.n, g.edge_count(), w.arity, w.origin])
        return ok, [span_ms(o.start, o.end) for o in outcomes], answers

    def compare(self, ok, answers, expected):
        if answers != expected:
            ok[:] = [False] * len(ok)


class Campaigns:
    """The README round trip, then every campaign at its default config.

    All commands go through funbox.cli.main in-process, one at a time, with
    --workers 1, writing their outputs to files in a scratch directory under
    the checkout. Items are the three round-trip commands and every campaign
    instance. In an untraced round an instance is timed from outside, around
    ``funbox.campaigns._run_one``, so that the reference clock can convert
    its interval; a traced round, whose latencies are not reported, takes
    the ``seconds`` field that ``_run_one`` writes into the instance's record.
    """

    def __init__(self, seed: int):
        from funbox.campaigns import CAMPAIGN_NAMES

        self.names = CAMPAIGN_NAMES
        self.ranges: dict[str, range] = {}
        self.commands = [
            ["gen", "abc", "--n", "5", "--seed", str(seed), "-o", "abc.json"],
            ["realize", "abc-intervals", "-i", "abc.json", "-o", "rep.json"],
            ["witness", "interval", "-i", "rep.json", "-o", "witness.json"],
        ]
        self.commands += [
            ["verify", name, "--seed", str(seed), "--workers", "1", "-o", f"{name}.json"]
            for name in CAMPAIGN_NAMES
        ]
        RUN_DIR.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="campaigns-", dir=RUN_DIR)
        # Relative output paths keep each report's config identical across rounds.
        self.cwd = os.getcwd()
        os.chdir(self.workdir)
        self.stderr = io.StringIO()
        self.instance_spans: list[list[tuple[float, float]]] = [[] for _ in self.commands]
        self.current = 0
        self._undo = None

    def time_instances(self) -> None:
        """Record each campaign instance's wall interval, for an untraced round."""
        import funbox.campaigns as campaigns

        run_one = campaigns._run_one
        perf = time.perf_counter
        spans = self.instance_spans

        def timed_run_one(task):
            start = perf()
            rec = run_one(task)
            spans[self.current].append((start, perf()))
            return rec

        campaigns._run_one = timed_run_one
        self._undo = (campaigns, run_one)

    def items(self):
        import funbox.cli as cli

        def command(index, argv):
            self.current = index
            with contextlib.redirect_stderr(self.stderr):
                return cli.main(argv)

        for index, argv in enumerate(self.commands):
            yield lambda index=index, argv=argv: command(index, argv)

    def check(self, outcomes, span_ms):
        """Exit codes, passed == total, and a digest of each report sans timings."""
        from funbox.graphs import graph_from_json
        from funbox.intervals import (
            graph_from_points,
            interval_rep_from_json,
            normalize,
        )
        from funbox.parameters import witness_from_json, witness_is_valid

        work = Path(self.workdir)
        ok, ms = [], []
        trip = outcomes[:3]
        trip_ok = all(o.error is None and o.value == 0 for o in trip)
        if trip_ok:
            g = graph_from_json(json.loads((work / "abc.json").read_text()))
            rep = interval_rep_from_json(json.loads((work / "rep.json").read_text()))
            w = witness_from_json(json.loads((work / "witness.json").read_text()))
            pts_graph = graph_from_points(normalize(rep))
            trip_ok = g.n == 15 and witness_is_valid(pts_graph, w) and w.arity <= 8
        ok += [trip_ok] * 3
        ms += [span_ms(o.start, o.end) for o in trip]
        digests = {}
        for index, (name, outcome) in enumerate(zip(self.names, outcomes[3:]), start=3):
            path = work / f"{name}.json"
            if outcome.error is not None or not path.exists():
                ok.append(False)
                ms.append(span_ms(outcome.start, outcome.end))
                digests[name] = None
                continue
            report = json.loads(path.read_text())
            summary = report["summary"]
            report_ok = outcome.value == 0 and summary["passed"] == summary["total"] > 0
            self.ranges[name] = range(len(ok), len(ok) + len(report["instances"]))
            if self._undo:
                ms += [span_ms(a, b) for a, b in self.instance_spans[index]]
            else:
                ms += [rec["seconds"] * 1000.0 for rec in report["instances"]]
            for rec in report["instances"]:
                ok.append(report_ok and rec["pass"])
                del rec["seconds"]
            digests[name] = _digest(report)
        return ok, ms, digests

    def compare(self, ok, answers, expected):
        """Fail every instance of a campaign whose report digest changed."""
        for name, positions in self.ranges.items():
            if answers[name] != expected[name]:
                for pos in positions:
                    ok[pos] = False

    def close(self):
        if self._undo:
            campaigns, run_one = self._undo
            campaigns._run_one = run_one
        os.chdir(self.cwd)
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {"exact": Exact, "realize": Realize, "campaigns": Campaigns}


class Outcome:
    __slots__ = ("value", "error", "start", "end")

    def __init__(self, value, error, start, end):
        self.value, self.error, self.start, self.end = value, error, start, end


def run_round(workload: str, seed: int, trace: bool) -> dict:
    """Set up, time every item once, check; return the round's record."""
    perf = time.perf_counter
    clock = None
    if not trace:
        from clock import RefClock

        clock = RefClock()
        clock.start()
    t_setup = perf()
    sys.path.insert(0, str(SRC))
    import funbox  # noqa: F401  (the import is part of set-up)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    bench = WORKLOADS[workload](seed)
    if clock and hasattr(bench, "time_instances"):
        bench.time_instances()
    t_setup_end = perf()

    outcomes = []
    cpu0 = time.process_time()
    t0 = perf()
    for thunk in bench.items():
        if tracer:
            tracer.new_item()
        start = perf()
        try:
            value, error = thunk(), None
        except Exception as exc:  # a failing item is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(value, error, start, perf()))
    t1 = perf()
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if clock:
        clock.stop()
        span_s = clock.ref_s
        # Raw wall time without the probes' own time.
        raw_wall_s = t1 - t0 - clock.probe_s(t0, t1)
    else:
        span_s = lambda a, b: b - a  # noqa: E731
        raw_wall_s = t1 - t0
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "setup_s": span_s(t_setup, t_setup_end),
        "wall_s": span_s(t0, t1),
        "raw_wall_s": raw_wall_s,
        "cpu_s": cpu_s,
        "speed": clock.median_speed() if clock else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "errors": sorted({o.error for o in outcomes if o.error}),
    }
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_table(raw_wall_s)
        RUN_DIR.mkdir(exist_ok=True)
        span_path = RUN_DIR / f"spans-{workload}-{seed}.json.gz"
        tracer.write_spans(span_path)
        record["spans_file"] = str(span_path.relative_to(ROOT))

    try:
        ok, ms, answers = bench.check(outcomes, lambda a, b: span_s(a, b) * 1000.0)
        expected = json.loads((HERE / "expected.json").read_text())[workload]
        if str(seed) in expected:
            bench.compare(ok, answers, expected[str(seed)])
    except Exception as exc:  # a broken output fails its round, not the run
        ok = [False] * len(outcomes)
        ms = [span_s(o.start, o.end) * 1000.0 for o in outcomes]
        answers = {"check_error": f"{type(exc).__name__}: {exc}"}
        record["errors"].append(answers["check_error"])
    finally:
        if hasattr(bench, "close"):
            bench.close()
    record.update(
        attempted=len(ok),
        failed=ok.count(False),
        latencies_ms=ms,
        answers=answers,
        fingerprint=_digest(answers),
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "funbox" / "__init__.py").is_file():
        print(f"perfbench: no funbox package under {SRC}", file=sys.stderr)
        return 2
    record = run_round(args.workload, args.seed, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
