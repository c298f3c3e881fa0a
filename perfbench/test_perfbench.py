"""Self-test of the benchmark: one short run of each workload, the reference
clock, the tracer's bindings, and that tracing changes no campaign report.

Run from the repository root (takes about a minute):

    python3 -m unittest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _python(script: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkRuns(unittest.TestCase):
    def run_bench(self, workload: str, trace: int) -> dict:
        proc = _python(
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", str(trace),
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = _last_json(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, declared)
        return {name: m["value"] for name, m in result["metrics"].items()}

    def test_exact(self):
        metrics = self.run_bench("exact", 0)
        self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_realize_traced(self):
        layers = self.run_bench("realize", 1)
        builders_and_graph = sum(
            layers[name]
            for name in (
                "geometry.graph_from_boxes.self_s",
                "geometry.incidence_graph.self_s",
                "intervals.graph_from_intervals.self_s",
                "graphs.Graph.self_s",
            )
        )
        self.assertGreater(builders_and_graph, 0.5 * layers["bench.timed.wall_s"])
        self.assertEqual(layers["parameters.fun_graph.calls"], 0)
        self.assertEqual(layers["parameters.sd_graph.calls"], 0)

    def test_campaign_reports_unchanged_by_tracing(self):
        rounds = []
        for trace in ("0", "1"):
            proc = _python(
                "perfbench/worker.py", "--workload", "campaigns", "--seed", "1", "--trace", trace
            )
            self.assertEqual(proc.returncode, 0, proc.stderr)
            rounds.append(_last_json(proc))
        plain, traced = rounds
        self.assertEqual(plain["failed"], 0)
        self.assertEqual(traced["failed"], 0)
        self.assertEqual(len(plain["answers"]), 8)
        self.assertEqual(plain["answers"], traced["answers"])
        self.assertEqual(traced["layers"]["campaigns.verify_campaign.instances"], 4313)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = _python(
                "perfbench/run.py",
                "--workload", "exact",
                "--seed", "1",
                "--seconds", "1",
                "--trace", "0",
                cwd=Path(bare),
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class ReferenceClock(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(HERE))
        try:
            import clock
        finally:
            sys.path.remove(str(HERE))
        cls.clock = clock

    def synthetic(self, probe_s: float):
        """A clock with a probe of probe_s at every 10 ms from t = 0 to 1 s."""
        clock = self.clock.RefClock()
        clock.starts = [k * 0.01 for k in range(101)]
        clock.durations = [probe_s] * 101
        clock._build()
        return clock

    def test_speed_scales_and_probes_are_left_out(self):
        ref = self.clock.REF_PROBE_S
        fast, slow = self.synthetic(ref), self.synthetic(2 * ref)
        # Between two probes: reference seconds = wall seconds x speed.
        self.assertAlmostEqual(fast.ref_s(0.003, 0.008), 0.005)
        self.assertAlmostEqual(slow.ref_s(0.003, 0.008), 0.0025)
        # Across 50 probes: their own time is not counted.
        self.assertAlmostEqual(slow.ref_s(0.005, 0.505), 0.5 * (0.5 - 50 * 2 * ref))
        self.assertAlmostEqual(slow.probe_s(0.005, 0.505), 50 * 2 * ref)
        self.assertAlmostEqual(slow.ref_s(0.01, 0.01 + ref), 0.0)

    def test_live_clock_measures_work(self):
        clock = self.clock.RefClock()
        clock.start()
        a = time.perf_counter()
        while time.perf_counter() - a < 0.2:
            self.clock.probe_work()
        b = time.perf_counter()
        clock.stop()
        self.assertGreater(len(clock.starts), 5)
        self.assertGreater(clock.ref_s(a, b), 0.0)
        self.assertLess(clock.probe_s(a, b), 0.5 * (b - a))


class TracerBindings(unittest.TestCase):
    def test_wrappers_replace_every_binding_and_are_removed(self):
        sys.path.insert(0, str(HERE))
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import funbox
            import funbox.cli
            import funbox.graphs
            import funbox.parameters
            from tracer import Tracer

            original = funbox.parameters.fun_graph
            tracer = Tracer()
            tracer.install()
            try:
                wrapped = funbox.parameters.fun_graph
                self.assertIsNot(wrapped, original)
                self.assertIs(funbox.cli.fun_graph, wrapped)
                self.assertIs(funbox.fun_graph, wrapped)
                tracer.new_item()
                g = funbox.graphs.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
                self.assertEqual(funbox.fun_graph(g), 1)
                table = tracer.layer_table(1.0)
            finally:
                tracer.uninstall()
            self.assertIs(funbox.parameters.fun_graph, original)
            self.assertIs(funbox.cli.fun_graph, original)
            self.assertEqual(table["parameters.fun_graph.calls"], 1)
            self.assertEqual(table["parameters.fun_graph.subsets"], 16)
            self.assertEqual(table["graphs.from_edge_list.calls"], 1)
            self.assertEqual(table["graphs.Graph.calls"], 1)
            self.assertEqual(table["graphs.Graph.vertices"], 4)
        finally:
            sys.path.remove(str(HERE))
            sys.path.remove(str(ROOT / "src"))


if __name__ == "__main__":
    unittest.main()
