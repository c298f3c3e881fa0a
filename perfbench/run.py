"""perfbench: the funbox benchmark.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Runs rounds of one workload until the next round would end after
``--seconds``, each round in a fresh interpreter (worker.py), one after the
other: a closed loop with a single client. Round i's inputs are made from
the seed ``1000 * seed + i``, so a run covers many inputs, and each metric is
the median of its per-round values. Times are in reference seconds
(clock.py): wall time with the machine's momentary speed divided out, so
that co-tenants on a shared host do not move them. Raw wall and CPU times go
to stderr. With ``--trace 1`` each round's inputs run untraced and then
traced; the result holds the per-layer metrics (raw times) and the tracing
overhead, and the full layer table goes to
``.perfbench_run/layers-<workload>-<seed>.json``.

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Metric names and units are the ones declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_DIR = ROOT / ".perfbench_run"
WORKLOADS = ("exact", "realize", "campaigns")

# A run, set-up and checks included, must end within 180 s.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the item with ten items beyond it."""
    return max(0, n - 11)


def tail_percentile(n: int) -> float:
    return 100.0 * (tail_rank(n) + 1) / n


def round_seed(seed: int, index: int) -> int:
    """Input seed of a run's round ``index``: every round gets fresh inputs."""
    return seed * 1000 + index


def round_metrics(rec: dict) -> dict[str, float]:
    ms = sorted(rec["latencies_ms"])
    return {
        "setup_s": rec["setup_s"],
        "ref_wall_s": rec["wall_s"],
        "ref_items_per_s": len(ms) / rec["wall_s"],
        "ref_item_ms_p50": statistics.median(ms),
        "ref_item_ms_tail": ms[tail_rank(len(ms))],
        "peak_rss_mb": rec["peak_rss_mb"],
    }


def run_worker(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(int(trace)),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} round exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Rounds until the next one would end after ``seconds`` (at least one).

    With tracing, each round's inputs run untraced and then traced.
    """
    start = time.perf_counter()
    modes = (False, True) if trace else (False,)
    rounds: list[dict] = []
    for index in itertools.count():
        for mode in modes:
            remaining = DEADLINE_S - (time.perf_counter() - start)
            rec = run_worker(workload, round_seed(seed, index), mode, max(remaining, 1.0))
            rounds.append(rec)
            print(
                f"perfbench: {workload} seed={rec['seed']} trace={int(mode)}: "
                f"ref wall {rec['wall_s']:.3f} s, raw wall {rec['raw_wall_s']:.3f} s, "
                f"{rec['attempted']} items, "
                f"{rec['failed']} failed",
                *rec["errors"],
                sep="\n  ",
                file=sys.stderr,
            )
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / (index + 1) > seconds:
            return rounds


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def summarize(workload: str, seed: int, rounds: list[dict], trace: bool) -> dict:
    declared = declared_metrics()
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    plain = [r for r in rounds if not r["trace"]]
    traced = [r for r in rounds if r["trace"]]
    for untraced, same_inputs in zip(plain, traced):
        if untraced["fingerprint"] != same_inputs["fingerprint"]:
            # Tracing must not change any output.
            failed += same_inputs["attempted"]
    per_round = [round_metrics(r) for r in plain]
    e2e = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    n_items = rounds[0]["attempted"]
    raw = {key: statistics.median(r[key] for r in plain) for key in ("raw_wall_s", "cpu_s", "speed")}
    print(
        f"perfbench: {workload} seed={seed}: {len(plain)} untraced rounds, "
        f"ref_item_ms_tail is p{tail_percentile(n_items):.2f} of {n_items} items, "
        f"failed_frac {failed / attempted:.6f}; medians of raw wall "
        f"{raw['raw_wall_s']:.4f} s, cpu {raw['cpu_s']:.4f} s, speed {raw['speed']:.4f}",
        file=sys.stderr,
    )
    if not trace:
        values, units = e2e, declared["end_to_end"]
    else:
        # Times vary with the machine: take their median over the traced
        # rounds. Work counts depend only on the inputs: take the first
        # round's, so that they repeat exactly for a given seed.
        tables = [r["layers"] for r in traced]
        layers = {
            name: statistics.median(t[name] for t in tables)
            if name.endswith(("_s", "_share"))
            else value
            for name, value in tables[0].items()
        }
        overhead = statistics.median(
            t["raw_wall_s"] - u["raw_wall_s"] for u, t in zip(plain, traced)
        )
        layers["bench.trace.overhead_s"] = overhead
        layers["bench.trace.overhead_frac"] = overhead / raw["raw_wall_s"]
        layers["bench.timed.wall_s"] = raw["raw_wall_s"]
        RUN_DIR.mkdir(exist_ok=True)
        table_path = RUN_DIR / f"layers-{workload}-{seed}.json"
        table_path.write_text(json.dumps(layers, indent=1, sort_keys=True) + "\n")
        values, units = layers, declared["per_layer"]
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="funbox benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "funbox" / "__init__.py").is_file():
        print(f"perfbench: no funbox package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
        result = summarize(args.workload, args.seed, rounds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
