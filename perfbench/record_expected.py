"""Record the answers that runs with the pinned seed are checked against.

    python3 perfbench/record_expected.py

Runs the first ROUNDS rounds of every workload for run seed 1 and writes
their answers to perfbench/expected.json: exact fun/sd values, realized graph
sizes and witnesses, and a digest of each campaign report with its timing
fields removed. A round whose seed is recorded there fails any item whose
answer differs. Re-record only when a change alters the program's outputs on
purpose, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import HERE, WORKLOADS, round_seed, run_worker

PINNED_SEED = 1
ROUNDS = 12


def record() -> dict | None:
    expected = {}
    for workload in WORKLOADS:
        expected[workload] = {}
        for index in range(ROUNDS):
            seed = round_seed(PINNED_SEED, index)
            rec = run_worker(workload, seed, False, timeout=170.0)
            if rec["failed"]:
                print(f"{workload} seed {seed}: {rec['failed']} items failed", file=sys.stderr)
                return None
            expected[workload][str(seed)] = rec["answers"]
            print(f"{workload} seed {seed}: recorded", file=sys.stderr)
    return expected


def main() -> int:
    path = HERE / "expected.json"
    previous = path.read_text()
    # Record without checking against the answers being replaced.
    path.write_text(json.dumps({workload: {} for workload in WORKLOADS}) + "\n")
    expected = record()
    if expected is None:
        path.write_text(previous)
        return 1
    path.write_text(json.dumps(expected, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
