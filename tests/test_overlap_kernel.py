"""The shared sort-and-mask intersection kernel against the pairwise oracles.

Coordinates come from a small range so that ties, touching sides and
degenerate (lo == hi) sides are common.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox.graphs import GraphError
from oracles import (
    naive_graph_from_boxes,
    naive_graph_from_intervals,
    naive_incidence_graph,
)

COORD = st.integers(min_value=0, max_value=6)
SIDE = st.tuples(COORD, COORD).map(lambda p: (min(p), max(p)))


def boxes_of(d, max_size=30):
    return st.lists(st.tuples(*[SIDE] * d), max_size=max_size).map(tuple)


@st.composite
def box_systems(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    boxes = draw(boxes_of(d))
    labels = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=max(len(boxes) - 1, 0)),
            st.sampled_from(["A:1", "B:2", "C:3"]),
            max_size=len(boxes),
        )
    )
    return fb.BoxSystem(d=d, scale_denominator=1, boxes=boxes, labels=labels or None)


@settings(max_examples=200, deadline=None)
@given(st.lists(SIDE, min_size=1, max_size=30))
def test_intervals_match_oracle(intervals):
    rep = fb.IntervalRep(intervals=tuple(intervals))
    fast, slow = fb.graph_from_intervals(rep), naive_graph_from_intervals(rep)
    assert fast.rows == slow.rows


@settings(max_examples=200, deadline=None)
@given(box_systems())
def test_boxes_match_oracle(bs):
    fast, slow = fb.graph_from_boxes(bs), naive_graph_from_boxes(bs)
    assert fast.n == len(bs.boxes)
    assert fast.rows == slow.rows
    assert fast.labels == slow.labels


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incidence_matches_oracle(data):
    bs = data.draw(box_systems())
    points = data.draw(st.lists(st.tuples(*[COORD] * bs.d), max_size=30))
    fast, slow = fb.incidence_graph(points, bs), naive_incidence_graph(points, bs)
    assert fast.n == len(points) + len(bs.boxes)
    assert fast.rows == slow.rows


def test_incidence_empty_sides():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(((0, 2), (5, 6)),))
    assert fb.incidence_graph([], bs).rows == (0,)
    empty = fb.BoxSystem(d=2, scale_denominator=1, boxes=())
    assert fb.incidence_graph([(1, 1), (2, 2)], empty).rows == (0, 0)
    assert fb.incidence_graph([], empty).n == 0


def test_incidence_rejects_point_of_wrong_dimension():
    bs = fb.BoxSystem(d=2, scale_denominator=1, boxes=(((0, 2), (5, 6)),))
    with pytest.raises(GraphError):
        fb.incidence_graph([(1,)], bs)
    with pytest.raises(GraphError):
        fb.incidence_graph([(1, 5, 0)], bs)
    assert fb.incidence_graph([(1, 5)], bs).edge_count() == 1
