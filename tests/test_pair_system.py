"""``fun_vertices`` and the one pair system it shares between targets.

``_pair_system`` builds one hitting-set system for every target of a graph:
pair (z, w) is a requirement of target t exactly when t tells z and w apart,
and ``own[t]`` drops the masks that only pairs holding t make. Each target's
system must be the one ``_arg_system`` builds for it alone, and
``fun_vertices`` must answer exactly as ``fun_vertex`` does, vertex by vertex.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox.campaigns import random_graph, random_interval_rep, random_permutation
from funbox.graphs import bit_ids
from funbox.parameters import _arg_system, _pair_system
from test_exact_core import _all_graphs


def _edges(g):
    return [(u, v) for u in range(g.n) for v in bit_ids(g.rows[u] >> (u + 1) << (u + 1))]


def _with_copy(g, v, adjacent):
    """g plus a twin of v: adjacent to v (a true twin) or not (a false twin)."""
    extra = [(w, g.n) for w in bit_ids(g.rows[v])]
    return fb.from_edge_list(g.n + 1, _edges(g) + extra + ([(v, g.n)] if adjacent else []))


def _with_apex(g, universal):
    """g plus one vertex adjacent to all of g or to none of it."""
    extra = [(v, g.n) for v in range(g.n)] if universal else []
    return fb.from_edge_list(g.n + 1, _edges(g) + extra)


@st.composite
def bernoulli_graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    return random_graph(n, draw(st.integers(0, 4)), 4, draw(st.integers(0, 2**64 - 1)))


@st.composite
def family_graphs(draw):
    """Small intervals, ABC, Q_3/Q_4, H^2_2/H^3_2, or the one- and two-vertex graphs."""
    kind = draw(st.sampled_from(["interval", "abc", "cube", "hni", "tiny"]))
    if kind == "interval":
        n = draw(st.integers(1, 12))
        rep = random_interval_rep(n, draw(st.integers(0, 2**64 - 1)), draw(st.integers(2, 30)))
        return fb.graph_from_intervals(rep)
    if kind == "abc":
        n = draw(st.integers(1, 4))
        return fb.abc_graph(n, random_permutation(n, draw(st.integers(0, 2**64 - 1))))[0]
    if kind == "cube":
        return fb.hypercube(draw(st.sampled_from([3, 4])))[0]
    if kind == "hni":
        return fb.point_box_incidence(draw(st.sampled_from([2, 3])), 2)[0]
    n, edges = draw(st.sampled_from([(1, []), (2, []), (2, [(0, 1)])]))
    return fb.from_edge_list(n, edges)


@st.composite
def grown_graphs(draw):
    """A Bernoulli or family graph with twins, isolated or universal vertices added."""
    g = draw(bernoulli_graphs(max_n=8) | family_graphs())
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            g = _with_copy(g, draw(st.integers(0, g.n - 1)), draw(st.booleans()))
        else:
            g = _with_apex(g, draw(st.booleans()))
    return g


def _check_fun_vertices(g):
    assert fb.fun_vertices(g, max_n=g.n) == [fb.fun_vertex(g, y) for y in range(g.n)]


@given(bernoulli_graphs())
@settings(max_examples=150, deadline=None)
def test_fun_vertices_matches_fun_vertex_on_bernoulli_graphs(g):
    _check_fun_vertices(g)


@given(family_graphs())
@settings(max_examples=60, deadline=None)
def test_fun_vertices_matches_fun_vertex_on_families(g):
    _check_fun_vertices(g)


@given(grown_graphs())
@settings(max_examples=100, deadline=None)
def test_fun_vertices_matches_fun_vertex_with_twins_and_apexes(g):
    _check_fun_vertices(g)


def _check_target_systems(rows, universe):
    reqs, cover, own = _pair_system(rows, universe)
    sizes = [r.bit_count() for r in reqs]
    assert sizes == sorted(sizes) and len(set(reqs)) == len(reqs)
    for t in bit_ids(universe):
        shared = {reqs[i] & ~(1 << t) for i in bit_ids(cover[t] & ~own[t])}
        assert shared == set(_arg_system(rows, universe, t)[1])


@given(bernoulli_graphs() | grown_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_pair_system_gives_every_target_its_own_requirements(g, data):
    _check_target_systems(g.rows, g.full_mask)
    _check_target_systems(g.rows, data.draw(st.integers(0, g.full_mask)))


def test_a_mask_shared_with_a_pair_holding_the_target_still_counts():
    # pairs (0, 2) and (1, 2) both make {0, 1, 2}; for target 0 the first
    # holds it, but the second is a conflict that 0 alone tells apart
    g = fb.from_edge_list(3, [(0, 1)])
    reqs, cover, own = _pair_system(g.rows, g.full_mask)
    i = reqs.index(0b111)
    assert own[0] >> i & 1 == 0 and own[2] >> i & 1
    assert [k for k, _ in fb.fun_vertices(g)] == [1, 1, 0]


def test_fun_vertices_guard():
    g = random_graph(13, 1, 2, 7)
    with pytest.raises(fb.SizeLimitError, match="fun_vertices guard is 12 vertices"):
        fb.fun_vertices(g)
    assert fb.fun_vertices(g, max_n=13) == [fb.fun_vertex(g, y) for y in range(g.n)]


def test_fun_vertices_on_the_empty_graph():
    assert fb.fun_vertices(fb.Graph(0, [])) == []


def test_every_graph_on_four_vertices():
    for g in _all_graphs(4):
        _check_fun_vertices(g)
        _check_target_systems(g.rows, g.full_mask)
