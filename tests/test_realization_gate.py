"""The realizations' row gate agrees with the graph-level gate it replaced.

Each realizer compares the adjacency rows it rebuilds from its model with
the rows of its validated target. ``oracles.graph_gate`` is the gate as it
was: the public builder's validated ``Graph`` of the model, compared with
the target graph. On ABC graphs with n = 1..40 (identity and a seeded
permutation) and on H^n_i with i <= n <= 4, every report passes, the public
builders reproduce the target, and each one-pair flip of the rebuilt rows
raises in the row gate exactly when it raises in ``graph_gate``. A model
with at most ``ALL_PAIRS_MAX`` vertices has every pair flipped, a larger one
``SAMPLED_PAIRS`` seeded pairs.
"""

import itertools

import pytest
from oracles import graph_gate

import funbox as fb
from funbox import geometry
from funbox.campaigns import random_permutation
from funbox.geometry import RealizationError
from funbox.intervals import _intersection_rows
from funbox.rng import SplitMix64

ALL_PAIRS_MAX = 40
SAMPLED_PAIRS = 96


def _pairs(m: int):
    """The vertex pairs whose flip is checked on a model with m vertices."""
    if m <= ALL_PAIRS_MAX:
        return list(itertools.combinations(range(m), 2))
    rng = SplitMix64(m)
    pairs = []
    while len(pairs) < SAMPLED_PAIRS:
        u, v = rng.below(m), rng.below(m)
        if u != v:
            pairs.append((min(u, v), max(u, v)))
    return pairs


def _flip(rows, u: int, v: int) -> list[int]:
    rows = list(rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return rows


def _raises(gate, *args) -> bool:
    try:
        gate(*args)
    except RealizationError:
        return True
    return False


def _check_flips(target, rows, model: str) -> None:
    """Every checked one-pair flip of ``rows`` raises in the row gate exactly
    when ``graph_gate`` raises on the flipped rows' ``Graph``."""
    for u, v in _pairs(len(rows)):
        flipped = _flip(rows, u, v)
        realized = fb.Graph(len(flipped), flipped)
        row_gate = _raises(geometry._checked, target, flipped, model)
        assert row_gate == _raises(graph_gate, target, realized, model), (model, u, v)
        assert row_gate  # no flip keeps the rows


@pytest.mark.parametrize("seeded", [False, True], ids=["identity", "seeded"])
@pytest.mark.parametrize("n", range(1, 41))
def test_abc_realizations_pass_both_gates(n, seeded):
    g, meta = fb.abc_graph(n, random_permutation(n, 4000 + n) if seeded else None)
    parts = meta.parts["A"], meta.parts["B"], meta.parts["C"]
    bs, squares = fb.realize_abc_unit_squares(g, *parts)
    rep, intervals = fb.realize_abc_intervals(g, *parts)
    models = [
        (squares, fb.graph_from_boxes(bs), bs.boxes, "unit-square model", bs.is_unit()),
        (intervals, fb.graph_from_intervals(rep), [(iv,) for iv in rep.intervals],
         "interval model", None),
    ]
    for report, realized, boxes, model, unit in models:
        assert report.equal and report.unit == unit
        assert report.target_graph is g and report.realized_graph is g
        assert fb.equal_labeled(realized, g)
        assert graph_gate(g, realized, model, unit).equal
        _check_flips(g, _intersection_rows(boxes), model)


@pytest.mark.parametrize("n, i", [(n, i) for n in range(1, 5) for i in range(1, n + 1)])
def test_hni_realizations_pass_both_gates(n, i):
    target, _ = fb.point_box_incidence(n, i)
    model = f"plane realization of H^{n}_{i}"
    pts, bs, report = fb.realize_pointbox_plane(n, i)
    assert report.equal and report.unit is None
    assert report.target_graph.rows == target.rows
    assert report.realized_graph is report.target_graph
    plane = fb.incidence_graph(pts, bs)
    assert fb.equal_labeled(plane, target)
    assert graph_gate(target, plane, model).equal
    _check_flips(target, geometry._incidence_rows(pts, bs), model)

    boxes = fb.embed_pointbox_r3(pts, bs)
    assert fb.equal_labeled(fb.graph_from_boxes(boxes), target)
    assert graph_gate(plane, fb.graph_from_boxes(boxes), "3D embedding").equal
    _check_flips(plane, _intersection_rows(boxes.boxes), "3D embedding")
