"""Exact-coordinate box systems and self-validating realizations.

All coordinates are integers over one global scale denominator, so every
intersection test is pure integer comparison; boxes are closed, and touching
counts as intersecting (consistent with the closed-interval convention).
Box intersection graphs and point-in-box incidence graphs are built by the
same per-axis sort-and-mask kernel as interval graphs
(``intervals._overlap_rows``); a point is the degenerate box with
``lo == hi`` on every axis. An incidence graph runs the kernel once, for the
point rows, and takes the box rows as their columns (``graphs._columns``).
Each realization operation rebuilds the adjacency rows of its own geometry
(``intervals._intersection_rows`` or ``_incidence_rows``, no ``Graph``) and
compares them with the rows of a validated target in one gate
(``_require_equal``), which raises ``RealizationError`` unless the two match
bit for bit. The public builders wrap the same rows in a validated ``Graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .constructions import point_box_incidence
from .graphs import (
    Graph,
    GraphError,
    _columns,
    _json_int,
    _json_labels,
    _json_list,
    _json_object,
    _json_pairs,
)
from .intervals import IntervalRep, _intersection_graph, _intersection_rows, _overlap_rows
from .parameters import check_abc_partition


class RealizationError(RuntimeError):
    """A realization failed its own graph-equality validation (bug signal)."""


@dataclass(frozen=True)
class BoxSystem:
    """Closed axis-parallel boxes in R^d with scaled-integer coordinates."""

    d: int
    scale_denominator: int
    boxes: tuple[tuple[tuple[int, int], ...], ...]
    labels: dict[int, str] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise GraphError("dimension must be >= 1")
        if self.scale_denominator < 1:
            raise GraphError("scale denominator must be positive")
        for idx, box in enumerate(self.boxes):
            if len(box) != self.d:
                raise GraphError(f"box {idx} has {len(box)} sides, expected {self.d}")
            for lo, hi in box:
                if lo > hi:
                    raise GraphError(f"box {idx} has lo > hi in some coordinate")

    def is_unit(self) -> bool:
        return all(
            hi - lo == self.scale_denominator
            for box in self.boxes
            for lo, hi in box
        )


@dataclass(frozen=True)
class RealizationReport:
    """A passed self-check. ``realized_graph`` is ``target_graph`` itself: the
    gate has proved the model's rows equal the target's bit for bit."""

    target_graph: Graph
    realized_graph: Graph
    equal: bool
    unit: bool | None = None


def box_system_to_json(bs: BoxSystem) -> dict:
    data = {
        "d": bs.d,
        "scale_denominator": bs.scale_denominator,
        "boxes": [[list(side) for side in box] for box in bs.boxes],
    }
    if bs.labels:
        data["labels"] = {str(v): s for v, s in sorted(bs.labels.items())}
    return data


def box_system_from_json(data: dict) -> BoxSystem:
    data = _json_object(data, "box system JSON", ("d", "scale_denominator", "boxes"))
    boxes = _json_list(data["boxes"], "box system JSON 'boxes'", capped=True)
    boxes = tuple(tuple(_json_pairs(box, f"box {i}", "box side")) for i, box in enumerate(boxes))
    return BoxSystem(
        d=_json_int(data["d"], "'d'"),
        scale_denominator=_json_int(data["scale_denominator"], "'scale_denominator'"),
        boxes=boxes,
        labels=_json_labels(data, "box system", len(boxes)),
    )


def graph_from_boxes(bs: BoxSystem) -> Graph:
    """Intersection graph of the closed boxes, index-aligned."""
    return _intersection_graph(bs.boxes, dict(bs.labels) if bs.labels else None)


def _incidence_rows(points: Sequence[tuple[int, int]], bs: BoxSystem) -> list[int]:
    """Adjacency rows of the bipartite containment graph: point ids first,
    then box ids."""
    for idx, pt in enumerate(points):
        if len(pt) != bs.d:
            raise GraphError(f"point {idx} has {len(pt)} coordinates, expected {bs.d}")
    np_ = len(points)
    pt_rows = _overlap_rows([tuple((c, c) for c in pt) for pt in points], bs.boxes)
    return [row << np_ for row in pt_rows] + _columns(pt_rows, len(bs.boxes))


def incidence_graph(points: Sequence[tuple[int, int]], bs: BoxSystem) -> Graph:
    """Bipartite containment graph: point ids first, then box ids."""
    rows = _incidence_rows(points, bs)
    return Graph(len(rows), rows)


def _require_equal(rows, target_rows, model: str) -> None:
    """Raise RealizationError unless ``model``'s rebuilt ``rows`` equal
    ``target_rows`` bit for bit."""
    if rows != target_rows:
        raise RealizationError(f"{model} does not reproduce its target graph")


def _checked(target: Graph, rows, model: str, unit=None) -> RealizationReport:
    """The report of a ``model`` whose rebuilt adjacency ``rows`` equal the
    validated ``target``'s; any difference raises RealizationError. The rows
    are never wrapped in a second ``Graph``: once they equal ``target.rows``,
    ``target`` is the realized graph."""
    _require_equal(tuple(rows), target.rows, model)
    return RealizationReport(target, target, equal=True, unit=unit)


# ---------------------------------------------------------------------------
# plane realization of the point-box incidence family
# ---------------------------------------------------------------------------

def realize_pointbox_plane(
    n: int, i: int
) -> tuple[tuple[tuple[int, int], ...], BoxSystem, RealizationReport]:
    """Geometric realization of point_box_incidence(n, i) in the plane.

    Level 1 is one box over n points at distinct heights. Each later level
    places n x-translated copies, then one wide flat box per previous-level
    point covering that point's n copies, and finally shifts the copies
    vertically (one level-grid step apart) to restore globally distinct
    y-coordinates without leaving any containing box. Coordinates live on a
    grid refined by a factor of 2n+2 per level so the shifts always fit.
    """
    return _pointbox_plane(n, i)[:3]


def _pointbox_plane(n: int, i: int):
    """``realize_pointbox_plane``, plus the labels of the H^n_i it realized."""
    target, meta = point_box_incidence(n, i)  # validates n, i
    s = 2 * n + 2
    step = [s ** (i - j) if j >= 1 else 0 for j in range(i + 1)]
    pts = [(1, (l + 1) * step[1]) for l in range(n)]
    boxes = [((0, 2), (0, (n + 1) * step[1]))]
    for level in range(2, i + 1):
        u = step[level]
        width = max(hi for (lo, hi), _ in boxes)
        dx = width + 2
        new_pts = [(x + c * dx, y + c * u) for c in range(n) for (x, y) in pts]
        new_boxes = [
            ((x0 + c * dx, x1 + c * dx), (y0, y1))
            for c in range(n)
            for (x0, x1), (y0, y1) in boxes
        ]
        for x, y in pts:
            xs = [x + c * dx for c in range(n)]
            new_boxes.append(((min(xs) - 1, max(xs) + 1), (y - u, y + n * u)))
        pts = new_pts
        boxes = new_boxes
    bs = BoxSystem(d=2, scale_denominator=s ** (i - 1), boxes=tuple(boxes))
    report = _checked(target, _incidence_rows(pts, bs), f"plane realization of H^{n}_{i}")
    return tuple(pts), bs, report, meta


def embed_pointbox_r3(
    points: Sequence[tuple[int, int]], bs: BoxSystem
) -> BoxSystem:
    """Turn a planar point/box incidence instance into 3D box intersections.

    Scale triples; every 2D box m becomes the slab box x [3m, 3m+1], every
    point becomes a thin full-height column of half-width 1 around its
    tripled coordinates. Integer inputs keep outside points at distance >= 3
    from box borders, so column/slab overlap happens exactly on containment.
    The result's intersection rows are checked against the incidence rows
    (points first, then boxes; no point-point or box-box edges); neither side
    is built into a ``Graph``.
    """
    if bs.d != 2:
        raise GraphError("embedding expects a 2-dimensional box system")
    if len(set(points)) != len(points):
        raise GraphError("points must be pairwise distinct")
    m = len(bs.boxes)
    z_top = 3 * m + 1
    out = []
    for x, y in points:
        out.append(((3 * x - 1, 3 * x + 1), (3 * y - 1, 3 * y + 1), (0, z_top)))
    for idx, ((x0, x1), (y0, y1)) in enumerate(bs.boxes):
        z = 3 * idx
        out.append(((3 * x0, 3 * x1), (3 * y0, 3 * y1), (z, z + 1)))
    result = BoxSystem(d=3, scale_denominator=3 * bs.scale_denominator, boxes=tuple(out))
    _require_equal(
        _intersection_rows(result.boxes), _incidence_rows(points, bs), "3D embedding"
    )
    return result


# ---------------------------------------------------------------------------
# ABC realizations (unit squares and intervals)
# ---------------------------------------------------------------------------

def realize_abc_unit_squares(
    g: Graph, a, b, c
) -> tuple[BoxSystem, RealizationReport]:
    """Unit-square intersection model of an ABC graph.

    Square side is 4n at scale 4n (unit). A-squares step down-left with the
    A-order; B-squares sit above with y-offsets realizing the A-B half graph
    and x-offsets realizing the B-C half graph; C-squares sit to the right,
    y-overlapping every B-square, with an x-gap separating them from all of A.
    """
    abc = check_abc_partition(g, a, b, c)
    pos_b_bc = {v: m for m, v in enumerate(abc.order_b_bc, start=1)}
    side = 4 * abc.n
    xc, yc = 6 * abc.n, side + 1
    sq = {}
    for i, v in enumerate(abc.order_a, start=1):
        sq[v] = ((-i, side - i), (-i, side - i))
    for j, v in enumerate(abc.order_b_ab, start=1):
        x0 = xc - side - pos_b_bc[v] - 1
        y0 = side - j + 1
        sq[v] = ((x0, x0 + side), (y0, y0 + side))
    for j, v in enumerate(abc.order_c, start=1):
        sq[v] = ((xc - j, xc - j + side), (yc - j, yc - j + side))
    bs = BoxSystem(
        d=2,
        scale_denominator=side,
        boxes=tuple(sq[v] for v in range(g.n)),
        labels=dict(g.labels) if g.labels else None,
    )
    return bs, _checked(g, _intersection_rows(bs.boxes), "unit-square model", unit=bs.is_unit())


def realize_abc_intervals(
    g: Graph, a, b, c
) -> tuple[IntervalRep, RealizationReport]:
    """Interval model of an ABC graph (1D boxes).

    a_i = [0, 10(n-i)+5]; a B vertex with A-side index j and C-side index m
    gets [10(n-j)+8, 100n-10m]; c_j = [100n-10j+5, 100n+10].
    """
    abc = check_abc_partition(g, a, b, c)
    pos_b_bc = {v: m for m, v in enumerate(abc.order_b_bc, start=1)}
    n = abc.n
    q = 100 * n
    iv = {}
    for i, v in enumerate(abc.order_a, start=1):
        iv[v] = (0, 10 * (n - i) + 5)
    for j, v in enumerate(abc.order_b_ab, start=1):
        iv[v] = (10 * (n - j) + 8, q - 10 * pos_b_bc[v])
    for j, v in enumerate(abc.order_c, start=1):
        iv[v] = (q - 10 * j + 5, q + 10)
    rep = IntervalRep(intervals=tuple(iv[v] for v in range(g.n)))
    return rep, _checked(g, _intersection_rows([(iv,) for iv in rep.intervals]), "interval model")
