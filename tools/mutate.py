"""Run a fixed table of hand-made mutants against the tests that should kill them.

Each mutant replaces one piece of text in one source file. The tool copies
the checkout's ``src``, ``tests``, ``pyproject.toml`` and ``README.md`` (the
CLI tests check the README against the parser) into a temporary
directory once, checks that the table's tests pass there unmutated, then for
each mutant writes the mutated file, runs the mutant's test files with
pytest (stopping at the first failure) and restores the file. It prints one
line per mutant: killed or survived, the seconds the run took, and whether
that is the outcome the table expects.

A mutant is expected to be killed unless its entry gives ``equivalent``, the
reason no test that checks answers can tell it apart (say, a prune made
weaker, which is sound but slower). A test run that exceeds ``TIMEOUT_S``
seconds (a mutant can make a search loop forever) counts as killed.

Usage, from the root of the checkout (stdlib only; pytest must be
installed), running every mutant in the table:

    python3 tools/mutate.py

Exit status: 0 when every outcome is the expected one, 1 otherwise, 2 when
the unmutated tests fail or a table entry is bad.

When a change edits a kernel, add its mutants here; the tier-1 test
``tests/test_mutants.py`` checks that each entry's old text occurs exactly
once in its file, so the table cannot rot unnoticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

PARAMETERS = "src/funbox/parameters.py"
EXACT_TESTS = (
    "tests/test_exact_core.py",
    "tests/test_pair_system.py",
    "tests/test_parameters.py",
    "tests/test_profile_classes.py",
)
TABLE_TESTS = ("tests/test_parameters.py", "tests/test_intervals.py")
CONSTRUCTIONS = "src/funbox/constructions.py"
TRIPLE_TESTS = ("tests/test_constructions.py", "tests/test_whole_rows.py")
GEOMETRY = "src/funbox/geometry.py"
INTERVALS = "src/funbox/intervals.py"
GATE_TESTS = ("tests/test_geometry.py", "tests/test_cli.py", "tests/test_realization_gate.py")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None  # why no answer-checking test can kill it


MUTANTS = (
    Mutant(
        "fun-floor-raised", PARAMETERS,
        "    return 2 * best + 3\n", "    return 2 * best + 4\n", EXACT_TESTS,
    ),
    Mutant(
        "sd-floor-raised", PARAMETERS,
        "    return best + 4\n", "    return best + 5\n", EXACT_TESTS,
    ),
    Mutant(
        "pair-witness-d-le-best", PARAMETERS,
        "        if d < best:\n", "        if d <= best:\n", EXACT_TESTS,
    ),
    Mutant(
        "least-args-chooses-y", PARAMETERS,
        "if c & need and e != y:", "if c & need:", EXACT_TESTS,
    ),
    Mutant(
        "min-pair-sd-no-edge-correction", PARAMETERS,
        "d = (rx ^ ry).bit_count() - 2 * (rx >> y & 1)", "d = (rx ^ ry).bit_count()",
        EXACT_TESTS,
    ),
    Mutant(
        "pair-system-common-ored", PARAMETERS,
        "pairs[d] = pairs.get(d, -1) & (bz | bw)", "pairs[d] = pairs.get(d, 0) | (bz | bw)",
        EXACT_TESTS,
    ),
    Mutant(
        "fun-floor-lowered", PARAMETERS,
        "    return 2 * best + 3\n", "    return 2 * best + 2\n", EXACT_TESTS,
        equivalent="sound but slower: it steps masks too small to beat the best, "
        "and each step is exact",
    ),
    Mutant(
        "push-cut-strict", PARAMETERS,
        "        if size <= least:\n", "        if size < least:\n", EXACT_TESTS,
        equivalent="sound but slower: the children it now pushes are skipped "
        "when popped, by the size check at the top of the loop",
    ),
    Mutant(
        "degree-witness-strict", PARAMETERS,
        "        if deg <= best:\n", "        if deg < best:\n", EXACT_TESTS,
        equivalent="sound but slower: N(v) still bounds the hitting-set step, so "
        "a witness of at most best arguments is still found",
    ),
    Mutant(
        "hit-third-narrowing-dropped", PARAMETERS,
        "            rest ^= low\n"
        "            if rest and cand:\n"
        "                low = rest & -rest\n"
        "                cand &= reqs[low.bit_length() - 1]\n",
        "            rest ^= low\n",
        EXACT_TESTS,
        equivalent="sound but slower: each candidate left is still checked "
        "against every pending requirement",
    ),
    Mutant(
        "low-bits-truth-swapped", PARAMETERS,
        "zmask, truth = diff, 0b10", "zmask, truth = diff, 0b01", TABLE_TESTS,
    ),
    Mutant(
        "low-bits-period-wrong", PARAMETERS,
        "// ((1 << (1 << j)) - 1) * truth", "// ((1 << (j + 1)) - 1) * truth", TABLE_TESTS,
    ),
    Mutant(
        "low-bits-arity-unchecked", PARAMETERS,
        "    _check_arity(k)\n    return ((1 << (1 << k)) - 1)",
        "    return ((1 << (1 << k)) - 1)",
        TABLE_TESTS,
    ),
    Mutant(
        "gk-grid-bx-plus-q", CONSTRUCTIONS,
        "bx, by = p * k - q + (i - 1) * k * k",
        "bx, by = p * k + q + (i - 1) * k * k",
        TRIPLE_TESTS,
    ),
    Mutant(
        "gk-x-rank-by-i", CONSTRUCTIONS,
        "x_ranks.append((bx - 1) * k + j)", "x_ranks.append((bx - 1) * k + i)", TRIPLE_TESTS,
    ),
    Mutant(
        "abc-b-by-c-sorted-by-xs", CONSTRUCTIONS,
        "B_by_c=tuple(n + t for t in sorted(range(n), key=ys.__getitem__))",
        "B_by_c=tuple(n + t for t in sorted(range(n), key=xs.__getitem__))",
        TRIPLE_TESTS,
    ),
    Mutant(
        "extend-ranks-swapped", CONSTRUCTIONS,
        "_abc(x_ranks, y_ranks, ", "_abc(y_ranks, x_ranks, ", TRIPLE_TESTS,
    ),
    Mutant(
        "extend-c-position-shifted", CONSTRUCTIONS,
        "embed[c] = 2 * big + k * (i - 1)", "embed[c] = 2 * big + k * i", TRIPLE_TESTS,
    ),
    Mutant(
        "extend-rows-unchecked", CONSTRUCTIONS,
        "if g.rows != tuple(rows) or meta != ref_meta:", "if meta != ref_meta:", TRIPLE_TESTS,
    ),
    Mutant(
        "gate-skips-row-0", GEOMETRY,
        "    if rows != target_rows:\n", "    if rows[1:] != target_rows[1:]:\n", GATE_TESTS,
    ),
    Mutant(
        "embed-gate-incidence-twice", GEOMETRY,
        "_intersection_rows(result.boxes), _incidence_rows(points, bs),",
        "_incidence_rows(points, bs), _incidence_rows(points, bs),",
        GATE_TESTS,
    ),
    Mutant(
        "intersection-rows-keep-diagonal", INTERVALS,
        "    return [row & ~(1 << u) for u, row in enumerate(rows)]\n", "    return rows\n",
        GATE_TESTS,
    ),
    Mutant(
        "incidence-rows-unshifted", GEOMETRY,
        "[row << np_ for row in pt_rows]", "list(pt_rows)", GATE_TESTS,
    ),
)


def _pytest(workdir: Path, tests) -> tuple[int | None, float]:
    """The exit code of pytest on ``tests`` (None on timeout) and its seconds."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    # no bytecode cache: a mutant of the same size, written within the second
    # the original was compiled, would otherwise run the stale original
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        code = subprocess.run(
            cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="funbox-mutate-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, work / name)
        all_tests = sorted({t for m in MUTANTS for t in m.tests})
        code, seconds = _pytest(work, all_tests)
        if code != 0:
            print(f"unmutated tests fail (pytest exit {code}); no mutant run", file=sys.stderr)
            return 2
        print(f"unmutated: {len(all_tests)} test files pass in {seconds:.1f} s")

        unexpected = 0
        for m in MUTANTS:
            path = work / m.file
            source = path.read_text()
            if source.count(m.old) != 1:
                print(f"{m.name}: old text occurs {source.count(m.old)} times", file=sys.stderr)
                return 2
            path.write_text(source.replace(m.old, m.new))
            try:
                code, seconds = _pytest(work, m.tests)
            finally:
                path.write_text(source)
            if code not in (None, 0, 1, 2):
                print(f"{m.name}: pytest exit {code}", file=sys.stderr)
                return 2
            outcome = "killed" if code != 0 else "survived"
            expected = "survived" if m.equivalent else "killed"
            unexpected += outcome != expected
            note = "as expected" if outcome == expected else f"UNEXPECTED, expected {expected}"
            timeout = " (timeout)" if code is None else ""
            print(f"{m.name:32} {outcome:8} {seconds:6.1f} s  {note}{timeout}")
        print(f"{len(MUTANTS)} mutants, {unexpected} unexpected")
        return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
