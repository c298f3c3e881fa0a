"""Interval models, their grid-point normal form, and low-arity witnesses.

An interval model with pairwise-distinct endpoints can be rewritten on the
endpoint ranks 1..2n, turning each vertex into a grid point (left rank,
right rank) above the diagonal. The witness search partitions the 2n
coordinate lines into stripes of 5 and works block by block; every emitted
witness has at most 8 arguments and is re-validated against the graph.

Every intersection graph in the package (intervals here, boxes and
point-in-box incidences in ``geometry``) is built by one kernel,
``_overlap_rows``; ``_intersection_rows`` gives its adjacency rows without
building a ``Graph``, for the realizations' self-checks. Intervals and box
sides are closed, so touching counts as intersecting: two boxes meet iff
``lo_v <= hi_u`` and ``hi_v >= lo_u`` on every axis. Per axis, the kernel
sorts the lo and the hi endpoints once and keeps prefix and suffix OR-masks
over them, so each box's row is two bisects and two ANDs of bit masks per
axis instead of a loop over all other boxes (the sort-based scheme of
Zomorodian and Edelsbrunner, "Fast software for box intersections", 2002).
All comparisons are exact integer comparisons.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import or_

from .graphs import Graph, GraphError, _json_int, _json_object, _json_pairs
from .parameters import Witness, _emit, _low_bits_table, pair_witness


@dataclass(frozen=True)
class IntervalRep:
    """Closed intervals with scaled-integer endpoints (true value = x/scale)."""

    intervals: tuple[tuple[int, int], ...]
    scale_denominator: int = 1

    def __post_init__(self):
        if not self.intervals:
            raise GraphError("interval representation must be nonempty")
        if self.scale_denominator < 1:
            raise GraphError("scale denominator must be positive")
        for idx, (lo, hi) in enumerate(self.intervals):
            if lo > hi:
                raise GraphError(f"interval {idx} has l > r: [{lo},{hi}]")

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class PointRep:
    """One grid point (i, j) per vertex, i < j, ranks covering {1..2n}."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.points:
            raise GraphError("point representation must be nonempty")
        used = []
        for idx, (i, j) in enumerate(self.points):
            if i >= j:
                raise GraphError(f"point {idx} must satisfy i < j, got ({i},{j})")
            used.extend((i, j))
        if sorted(used) != list(range(1, 2 * len(self.points) + 1)):
            raise GraphError("endpoint ranks must be a permutation of 1..2n")

    @property
    def n(self) -> int:
        return len(self.points)


def interval_rep_to_json(rep: IntervalRep) -> dict:
    return {
        "scale_denominator": rep.scale_denominator,
        "intervals": [list(iv) for iv in rep.intervals],
    }


def interval_rep_from_json(data: dict) -> IntervalRep:
    data = _json_object(data, "interval JSON", ("intervals",))
    pairs = _json_pairs(data["intervals"], "interval JSON 'intervals'", "interval", capped=True)
    return IntervalRep(
        intervals=tuple(pairs),
        scale_denominator=_json_int(
            data.get("scale_denominator", 1), "'scale_denominator'"
        ),
    )


def _overlap_rows(a_boxes, b_boxes) -> list[int]:
    """Row u: bit mask of the closed boxes in ``b_boxes`` that ``a_boxes[u]`` meets.

    A box is a sequence of (lo, hi) sides, one per axis; both sequences
    must have the same dimension.
    """
    m = len(b_boxes)
    rows = [(1 << m) - 1] * len(a_boxes)
    for axis in range(len(a_boxes[0]) if a_boxes else 0):
        lo_order = sorted(range(m), key=lambda v: b_boxes[v][axis][0])
        hi_order = sorted(range(m), key=lambda v: b_boxes[v][axis][1])
        los = [b_boxes[v][axis][0] for v in lo_order]
        his = [b_boxes[v][axis][1] for v in hi_order]
        # prefix[k]: boxes with the k smallest lo's; suffix[k]: all but the k smallest hi's
        prefix = list(accumulate((1 << v for v in lo_order), or_, initial=0))
        suffix = list(accumulate((1 << v for v in reversed(hi_order)), or_, initial=0))
        suffix.reverse()
        rows = [
            row
            & prefix[bisect_right(los, box[axis][1])]
            & suffix[bisect_left(his, box[axis][0])]
            for row, box in zip(rows, a_boxes)
        ]
    return rows


def _intersection_rows(boxes) -> list[int]:
    """Adjacency rows of the closed ``boxes``' intersection graph: the
    kernel's rows with the diagonal cleared."""
    rows = _overlap_rows(boxes, boxes)
    return [row & ~(1 << u) for u, row in enumerate(rows)]


def _intersection_graph(boxes, labels=None) -> Graph:
    """Intersection graph of the closed ``boxes``, index-aligned."""
    rows = _intersection_rows(boxes)
    return Graph(len(rows), rows, labels)


def graph_from_intervals(rep: IntervalRep) -> Graph:
    """Intersection graph of the closed intervals, index-aligned."""
    return _intersection_graph([(iv,) for iv in rep.intervals])


def graph_from_points(rep: PointRep) -> Graph:
    """Intersection graph of the rank intervals [i, j]."""
    return _intersection_graph([(p,) for p in rep.points])


def normalize(rep: IntervalRep) -> PointRep:
    """Relabel endpoints by rank 1..2n, preserving the intersection graph.

    Ties break left-endpoint-first (then by interval id), which keeps
    touching closed intervals intersecting after the rewrite.
    """
    events = []
    for idx, (lo, hi) in enumerate(rep.intervals):
        events.append((lo, 0, idx))
        events.append((hi, 1, idx))
    events.sort()
    ranks = [[0, 0] for _ in range(rep.n)]
    for rank, (_, side, idx) in enumerate(events, start=1):
        ranks[idx][side] = rank
    return PointRep(points=tuple(map(tuple, ranks)))


def manhattan(p: tuple[int, int], q: tuple[int, int]) -> int:
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


@dataclass(frozen=True)
class SdLemmaReport:
    """Outcome of the pairwise sd <= Manhattan - 2 sweep."""

    pairs_checked: int
    violation: tuple[int, int, int, int] | None  # (u, v, sd, manhattan)

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_sd_lemma(rep: PointRep) -> SdLemmaReport:
    """Assert sd(u, v) <= Manhattan(u, v) - 2 for every vertex pair."""
    rows = graph_from_points(rep).rows
    pts = rep.points
    n = rep.n
    for u in range(n):
        ru = rows[u]
        iu, ju = pts[u]
        for v in range(u + 1, n):
            # bits u and v of ru ^ rows[v] are both set iff u ~ v; neither counts
            d = (ru ^ rows[v]).bit_count() - 2 * (ru >> v & 1)
            iv, jv = pts[v]
            dist = abs(iu - iv) + abs(ju - jv)
            if d > dist - 2:
                # pairs are checked in lexicographic order; (u, v) is number
                # u(2n - u - 1)/2 + v - u
                checked = u * (2 * n - u - 1) // 2 + v - u
                return SdLemmaReport(checked, (u, v, d, dist))
    return SdLemmaReport(n * (n - 1) // 2, None)


STRIPE = 5


def _stripe(coord: int) -> int:
    return (coord - 1) // STRIPE


def find_low_fun_witness(rep: PointRep) -> Witness:
    """Validated witness with at most 8 arguments for some vertex.

    n <= 8: vertex 0 with all others as arguments. Otherwise split the
    coordinate lines into 5-line stripes. A block with two points gives a
    distinguisher pair witness (<= 7 args). Otherwise the first non-empty
    non-marginal block in row-major order yields a vertex x, the nearest
    point y above it in its vertical stripe and nearest point z to its left
    in its horizontal stripe: x's adjacency is the conjunction of y's and
    z's bits, with the intervals owning an endpoint strictly between the
    columns of x,y or the rows of x,z as inessential extras. Case 2's table,
    the AND of its first two arguments, comes from ``_low_bits_table``.
    """
    pts = rep.points
    n = rep.n
    g = graph_from_points(rep)
    if n <= 8:
        args = tuple(range(1, n))
        return _emit(g, Witness(0, args, 0, "small-n"))

    blocks: dict[tuple[int, int], list[int]] = {}
    for idx, (i, j) in enumerate(pts):
        blocks.setdefault((_stripe(i), _stripe(j)), []).append(idx)

    crowded = [key for key, ids in blocks.items() if len(ids) >= 2]
    if crowded:
        x, y = blocks[min(crowded)][:2]  # each block lists its ids in order
        # pair_witness has validated the witness; only its origin changes
        return replace(pair_witness(g, x, y, "distinguishers"), origin="stripe-case1")

    # every block holds at most one point: locate a non-marginal one
    leftmost: dict[int, int] = {}
    topmost: dict[int, int] = {}
    for vs, hs in sorted(blocks):
        leftmost.setdefault(hs, vs)
        topmost[vs] = hs
    inner = [(hs, vs) for vs, hs in blocks if leftmost[hs] != vs and topmost[vs] != hs]
    if not inner:
        raise AssertionError("no non-marginal block although n >= 9")
    hs, vs = min(inner)  # the first in row-major order
    x = blocks[vs, hs][0]
    xi, xj = pts[x]
    above = [idx for idx, (i, j) in enumerate(pts) if _stripe(i) == vs and j > xj]
    left = [idx for idx, (i, j) in enumerate(pts) if _stripe(j) == hs and i < xi]
    y = min(above, key=lambda idx: pts[idx][1])
    z = max(left, key=lambda idx: pts[idx][0])
    col_lo, col_hi = sorted((xi, pts[y][0]))
    row_lo, row_hi = sorted((xj, pts[z][1]))
    extras = [
        idx
        for idx, (i, j) in enumerate(pts)
        if idx not in (x, y, z)
        and (
            col_lo < i < col_hi
            or col_lo < j < col_hi
            or row_lo < i < row_hi
            or row_lo < j < row_hi
        )
    ]
    args = (y, z, *sorted(extras))
    return _emit(g, Witness(x, args, _low_bits_table(len(args), 2, 0b1000), "stripe-case2"))
