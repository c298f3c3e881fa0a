import pytest

import funbox as fb
from funbox import geometry
from funbox.campaigns import random_interval_rep, random_permutation
from funbox.geometry import (
    RealizationError,
    box_system_from_json,
    box_system_to_json,
    incidence_graph,
)
from funbox.graphs import GraphError
from funbox.rng import SplitMix64


def unit_square(x, y, side=1):
    return ((x, x + side), (y, y + side))


# ---------------------------------------------------------------- graph_from_boxes

def test_touching_squares_intersect():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(unit_square(0, 0), unit_square(1, 0)))
    assert fb.graph_from_boxes(bs).edge_count() == 1


def test_disjoint_squares():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(unit_square(0, 0), unit_square(3, 3)))
    assert fb.graph_from_boxes(bs).edge_count() == 0


def test_d1_boxes_match_interval_graph():
    rng = SplitMix64(808)
    for _ in range(50):
        rep = random_interval_rep(1 + rng.below(25), rng.next_u64(), 60)
        bs = fb.BoxSystem(
            d=1,
            scale_denominator=rep.scale_denominator,
            boxes=tuple((iv,) for iv in rep.intervals),
        )
        assert fb.equal_labeled(fb.graph_from_boxes(bs), fb.graph_from_intervals(rep))


def test_box_system_validation():
    with pytest.raises(GraphError):
        fb.BoxSystem(d=2, scale_denominator=1, boxes=(((0, 1),),))
    with pytest.raises(GraphError):
        fb.BoxSystem(d=1, scale_denominator=1, boxes=(((2, 1),),))
    with pytest.raises(GraphError, match="dimension must be >= 1"):
        fb.BoxSystem(d=0, scale_denominator=1, boxes=())
    with pytest.raises(GraphError, match="scale denominator must be positive"):
        fb.BoxSystem(d=1, scale_denominator=0, boxes=(((0, 1),),))


def test_box_system_json_round_trip():
    bs = fb.BoxSystem(
        d=2,
        scale_denominator=4,
        boxes=(unit_square(0, 0, 4), unit_square(-3, 2, 4)),
        labels={0: "A:1", 1: "B:1"},
    )
    assert box_system_from_json(box_system_to_json(bs)) == bs


# ---------------------------------------------------------------- plane realization

def test_plane_21_single_box_two_points():
    pts, bs, report = fb.realize_pointbox_plane(2, 1)
    assert len(pts) == 2 and len(bs.boxes) == 1
    assert report.equal
    assert pts[0][1] != pts[1][1]  # distinct heights


def test_plane_22_matches_incidence():
    pts, bs, report = fb.realize_pointbox_plane(2, 2)
    g, _ = fb.point_box_incidence(2, 2)
    assert report.equal
    assert fb.equal_labeled(incidence_graph(pts, bs), g)


def test_plane_33_point_degrees_geometric():
    pts, bs, _ = fb.realize_pointbox_plane(3, 3)
    assert len(pts) == 27 and len(bs.boxes) == 27
    for pt in pts:
        containing = sum(
            1
            for box in bs.boxes
            if box[0][0] <= pt[0] <= box[0][1] and box[1][0] <= pt[1] <= box[1][1]
        )
        assert containing == 3


def test_plane_distinct_y_coordinates():
    pts, _, _ = fb.realize_pointbox_plane(3, 3)
    ys = [y for _, y in pts]
    assert len(set(ys)) == len(ys)


def test_plane_new_boxes_pairwise_disjoint_per_level():
    # all boxes at the same recursion level are pairwise disjoint
    _, bs, _ = fb.realize_pointbox_plane(2, 2)
    last_level = bs.boxes[-2:]  # 2 matching boxes added at level 2
    (ax, ay), (bx, by) = last_level
    assert ay[1] < by[0] or by[1] < ay[0] or ax[1] < bx[0] or bx[1] < ax[0]


# ---------------------------------------------------------------- 3D embedding

def test_embed_single_containment():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(((0, 2), (0, 2)),))
    out = fb.embed_pointbox_r3([(1, 1)], bs)
    g = fb.graph_from_boxes(out)
    assert g.n == 2 and g.edge_count() == 1


def test_embed_single_outside():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(((0, 2), (0, 2)),))
    out = fb.embed_pointbox_r3([(5, 5)], bs)
    assert fb.graph_from_boxes(out).edge_count() == 0


def test_embed_pipeline_from_plane():
    pts, bs, _ = fb.realize_pointbox_plane(2, 2)
    out = fb.embed_pointbox_r3(pts, bs)
    g, _ = fb.point_box_incidence(2, 2)
    assert out.d == 3
    assert fb.equal_labeled(fb.graph_from_boxes(out), g)


def test_embed_slabs_and_columns_disjoint():
    pts, bs, _ = fb.realize_pointbox_plane(3, 2)
    out = fb.embed_pointbox_r3(pts, bs)
    n_pts = len(pts)
    cols = out.boxes[:n_pts]
    slabs = out.boxes[n_pts:]
    def disjoint(b1, b2):
        return any(h1 < l2 or h2 < l1 for (l1, h1), (l2, h2) in zip(b1, b2))
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            assert disjoint(cols[i], cols[j])
    for i in range(len(slabs)):
        for j in range(i + 1, len(slabs)):
            assert disjoint(slabs[i], slabs[j])


def test_embed_rejects_a_box_system_not_in_the_plane():
    bs = fb.BoxSystem(d=1, scale_denominator=1, boxes=(((0, 2),),))
    with pytest.raises(GraphError, match="2-dimensional"):
        fb.embed_pointbox_r3([(1, 1)], bs)


def test_embed_rejects_duplicate_points():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(((0, 2), (0, 2)),))
    with pytest.raises(GraphError):
        fb.embed_pointbox_r3([(1, 1), (1, 1)], bs)


# ---------------------------------------------------------------- ABC realizations

def test_abc_units_n1_disjoint():
    g, meta = fb.abc_graph(1)
    bs, report = fb.realize_abc_unit_squares(
        g, meta.parts["A"], meta.parts["B"], meta.parts["C"]
    )
    assert report.equal and report.unit
    assert fb.graph_from_boxes(bs).edge_count() == 0


def test_abc_units_figure_sized_example():
    g, meta = fb.abc_graph(5, (4, 1, 5, 3, 2))
    bs, report = fb.realize_abc_unit_squares(
        g, meta.parts["A"], meta.parts["B"], meta.parts["C"]
    )
    assert report.equal and report.unit
    assert bs.is_unit()


def test_abc_units_random_perms():
    rng = SplitMix64(60)
    for _ in range(25):
        n = 1 + rng.below(30)
        g, meta = fb.abc_graph(n, random_permutation(n, rng.next_u64()))
        bs, report = fb.realize_abc_unit_squares(
            g, meta.parts["A"], meta.parts["B"], meta.parts["C"]
        )
        assert report.equal and report.unit


def test_abc_intervals_n1_disjoint():
    g, meta = fb.abc_graph(1)
    rep, report = fb.realize_abc_intervals(
        g, meta.parts["A"], meta.parts["B"], meta.parts["C"]
    )
    assert report.equal
    assert fb.graph_from_intervals(rep).edge_count() == 0


def test_abc_intervals_n2_identity():
    g, meta = fb.abc_graph(2)
    rep, report = fb.realize_abc_intervals(
        g, meta.parts["A"], meta.parts["B"], meta.parts["C"]
    )
    assert report.equal
    realized = fb.graph_from_intervals(rep)
    assert realized.has_edge(0, 3) and realized.has_edge(2, 5)  # a1-b2, b1-c2


def test_abc_intervals_from_extended_gk():
    g, meta = fb.g_k(2)
    big, bmeta, _ = fb.extend_gk_to_abc(g, meta)
    rep, report = fb.realize_abc_intervals(
        big, bmeta.parts["A"], bmeta.parts["B"], bmeta.parts["C"]
    )
    assert big.n == 48 and report.equal


def test_abc_chain_to_low_fun_witness():
    rng = SplitMix64(2025)
    for _ in range(10):
        n = 1 + rng.below(20)
        g, meta = fb.abc_graph(n, random_permutation(n, rng.next_u64()))
        rep, _ = fb.realize_abc_intervals(
            g, meta.parts["A"], meta.parts["B"], meta.parts["C"]
        )
        w = fb.find_low_fun_witness(fb.normalize(rep))
        assert w.arity <= 8
        assert fb.witness_is_valid(fb.graph_from_intervals(rep), w)


def test_abc_realize_rejects_non_abc_input():
    g = fb.from_edge_list(3, [(0, 1)])
    with pytest.raises(GraphError):
        fb.realize_abc_unit_squares(g, [0], [1], [2])


# ---------------------------------------------------------------- the self-check gate

def flip_first_pair(g):
    """``g`` with the adjacency of vertices 0 and 1 flipped, all else kept."""
    rows = list(g.rows)
    rows[0] ^= 0b10
    rows[1] ^= 0b01
    return fb.Graph(g.n, rows, g.labels)


def _abc_args():
    g, meta = fb.abc_graph(3, (2, 3, 1))
    return g, meta.parts["A"], meta.parts["B"], meta.parts["C"]


# (builder each realizer rebuilds its graph with, realizer, its arguments)
_GATED = [
    ("incidence_graph", fb.realize_pointbox_plane, lambda: (2, 2)),
    ("graph_from_boxes", fb.embed_pointbox_r3, lambda: fb.realize_pointbox_plane(2, 2)[:2]),
    ("graph_from_boxes", fb.realize_abc_unit_squares, _abc_args),
    ("graph_from_intervals", fb.realize_abc_intervals, _abc_args),
]


@pytest.mark.parametrize(
    "builder, realize, make_args", _GATED, ids=[r.__name__ for _, r, _ in _GATED]
)
def test_realization_with_one_edge_flipped_raises(monkeypatch, builder, realize, make_args):
    args = make_args()
    realize(*args)  # the unpatched realization passes its self-check
    build = getattr(geometry, builder)
    monkeypatch.setattr(geometry, builder, lambda *a: flip_first_pair(build(*a)))
    with pytest.raises(RealizationError, match="does not reproduce"):
        realize(*args)
