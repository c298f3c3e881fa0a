"""Repeat benchmark runs over seeds and summarise them, e.g. for a baseline.

    python3 perfbench/sweep.py --runs 10 --first-seed 101 --out perfbench/baseline.json

For each workload: ``--runs`` untraced runs of run.py, seeds first-seed,
first-seed+1, ..., each lasting BENCHMARK.json's run_seconds. For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the interquartile distance as a share of the median, next to the metric's
bound, and the same for the raw wall and CPU times that run.py reports on
stderr. Then one traced run (seed first-seed) gives the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

from run import ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-2000:]}")
    rounds = sum(" trace=0:" in line for line in proc.stderr.splitlines())
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["rounds"] = rounds
    raw = RAW.search(proc.stderr)
    result["raw"] = {"raw_wall_s": float(raw[1]), "raw_cpu_s": float(raw[2])}
    return result


RAW = re.compile(r"medians of raw wall ([0-9.]+) s, cpu ([0-9.]+) s")


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        out[metric["name"]] = {
            "unit": metric["unit"],
            **quartiles(values),
            "bound": metric["bound"],
            "values": values,
        }
    return out


def summarize_raw(runs: list[dict]) -> dict:
    out = {}
    for name in ("raw_wall_s", "raw_cpu_s"):
        values = [r["raw"][name] for r in runs]
        out[name] = {"unit": "s", **quartiles(values), "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repeat perfbench runs over seeds")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    report = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "processor": platform.processor() or platform.machine(),
        },
        "run_seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        runs = [bench(workload, seed, 0) for seed in seeds]
        e2e = summarize(runs)
        for name, m in e2e.items():
            flag = "" if name == "setup_s" or m["spread"] <= m["bound"] else "  OVER BOUND"
            print(
                f"{workload:10s} {name:16s} median {m['median']:11.4f} {m['unit']:4s} "
                f"q1 {m['q1']:11.4f} q3 {m['q3']:11.4f} "
                f"spread {m['spread']:.3f} (bound {m['bound']}){flag}",
                file=sys.stderr,
            )
        traced = bench(workload, args.first_seed, 1)
        report["workloads"][workload] = {
            "runs": len(runs),
            "seeds": seeds,
            "rounds_per_run": [r["rounds"] for r in runs],
            "all_correct": all(r["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": e2e,
            "raw_not_declared": summarize_raw(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
