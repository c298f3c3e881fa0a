"""Whole-row validation against the oracles.

``Graph`` checks symmetry on whole rows, and ``recover_half_graph_orders``
checks the order rule with one suffix mask per vertex. ``abc_graph``, ``g_k``
and ``extend_gk_to_abc`` build their rows with one kernel, ``_triple_rows``,
from clique and prefix/suffix masks; the kernel is checked against the plain
edge definition on small random cliques and positions, and each generator
against the edge-list build it replaced. The definitions, the m x m pair loop
and the edge-list builds live on in ``oracles``. ``structure_scan`` and
``refute_function`` test K_{2,p}-freeness with bit-sliced common-neighbour
counters, checked against the pair loop they replaced.
"""

import itertools
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox import graphs
from funbox.campaigns import random_graph, random_permutation
from funbox.constructions import _triple_rows
from funbox.graphs import GraphError
from funbox.parameters import _k2p_free
from oracles import (
    edgelist_abc_graph,
    edgelist_extend_gk_to_abc,
    edgelist_g_k,
    naive_graph_error,
    naive_triple_rows,
    pairloop_k2p_free,
    pairloop_recover_half_graph_orders,
)


@st.composite
def row_sets(draw):
    """Symmetric rows with a few bits toggled on one side only.

    A toggled bit lands in either triangle, on the diagonal or above bit
    n-1; one row may also be made negative.
    """
    n = draw(st.integers(0, 12))
    rows = [0] * n
    if n:
        ids = st.integers(0, n - 1)
        for u, v in draw(st.lists(st.tuples(ids, ids), max_size=40)):
            if u != v:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for u, v in draw(st.lists(st.tuples(ids, st.integers(0, n + 2)), max_size=3)):
            rows[u] ^= 1 << v
        negate = draw(st.one_of(st.none(), ids))
        if negate is not None:
            rows[negate] = ~rows[negate]
    return n, rows


# 0 sends dense rows to _columns in one-row bands; sparse rows are walked
@pytest.mark.parametrize("text_max_n", [graphs._TEXT_MAX_N, 0], ids=["text", "walk"])
@given(row_sets())
@settings(max_examples=300, deadline=None)
def test_graph_validation_matches_definition(text_max_n, case):
    _check_validation(text_max_n, *case)


def _check_validation(text_max_n, n, rows):
    expected = naive_graph_error(n, rows)
    with patch.object(graphs, "_TEXT_MAX_N", text_max_n):
        if expected is None:
            assert fb.Graph(n, rows).rows == tuple(rows)
        else:
            with pytest.raises(GraphError) as exc:
                fb.Graph(n, rows)
            assert str(exc.value) == expected


# with n > _TEXT_MAX_N, dense rows are compared with their columns, which
# _columns takes in bands of _TEXT_MAX_N**2 // n rows: 1 to 6 rows here,
# the last band often shorter
@pytest.mark.parametrize("text_max_n", [1, 2, 3, 7])
@given(row_sets())
@settings(max_examples=300, deadline=None)
def test_banded_validation_matches_definition(text_max_n, case):
    _check_validation(text_max_n, *case)


@pytest.mark.parametrize("text_max_n", [1, 2, 3, 7])
def test_banded_validation_on_dense_rows(text_max_n):
    """G(n, 3/4) as it is and with each off-diagonal bit toggled on one side."""
    for n in range(1, 13):
        g = random_graph(n, 3, 4, n)
        _check_validation(text_max_n, n, list(g.rows))
        for u, v in itertools.permutations(range(n), 2):
            rows = list(g.rows)
            rows[u] ^= 1 << v
            _check_validation(text_max_n, n, rows)


def _perm(n, seed):
    return None if seed == 0 else random_permutation(n, 1000 * seed + n)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_abc_graph_matches_edge_list_build(seed):
    for n in range(1, 41):
        g, meta = fb.abc_graph(n, _perm(n, seed))
        ref, ref_meta = edgelist_abc_graph(n, _perm(n, seed))
        assert g.rows == ref.rows and g.labels == ref.labels
        assert meta == ref_meta
        # one bit off the diagonal toggled on one side is caught and named
        u, v = (n + seed) % (3 * n), (7 * n + 1) % (3 * n)
        if u != v:
            rows = list(g.rows)
            rows[u] ^= 1 << v
            with pytest.raises(GraphError) as exc:
                fb.Graph(3 * n, rows)
            assert str(exc.value) == naive_graph_error(3 * n, rows)


@st.composite
def triples(draw):
    """Clique sizes na, nc in 1..8 and up to 8 B vertices at x in 1..na, y in 1..nc.

    The ends of both ranges are drawn as often as all inner values together.
    """
    na, nc = draw(st.integers(1, 8)), draw(st.integers(1, 8))

    def position(top):
        return st.one_of(st.sampled_from([1, top]), st.integers(1, top))

    xs = draw(st.lists(position(na), max_size=8))
    ys = draw(st.lists(position(nc), min_size=len(xs), max_size=len(xs)))
    return na, nc, xs, ys


@given(triples())
@example((8, 8, [8] * 8, [1] * 8))  # the most cross edges the ranges allow
@example((8, 8, [1] * 8, [8] * 8))  # no cross edges
@example((1, 1, [], []))
@settings(max_examples=300, deadline=None)
def test_triple_rows_match_definition(case):
    na, nc, xs, ys = case
    assert _triple_rows(na, nc, xs, ys) == naive_triple_rows(na, nc, xs, ys)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_gk_and_extension_match_edge_list_builds(k):
    g, meta = fb.g_k(k)
    ref, ref_meta = edgelist_g_k(k)
    assert g.rows == ref.rows and list(g.labels.items()) == list(ref.labels.items())
    assert meta == ref_meta
    big, big_meta, embed = fb.extend_gk_to_abc(g, meta)
    ref_big, ref_big_meta, ref_embed = edgelist_extend_gk_to_abc(ref, ref_meta)
    assert big.rows == ref_big.rows
    assert list(big.labels.items()) == list(ref_big.labels.items())
    assert big_meta == ref_big_meta and embed == ref_embed


def _toggle(g, pairs):
    rows = list(g.rows)
    for x, y in pairs:
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
    return fb.Graph(g.n, rows, g.labels)


def _outcome(recover, g, xs, ys):
    try:
        return recover(g, xs, ys)
    except GraphError as exc:
        return str(exc)


@pytest.mark.parametrize("sides", ["AB", "BC"])
def test_half_graph_orders_match_pair_loop(sides):
    """Unchanged, one pair flipped, and one edge moved (x keeps its degree)."""
    rule_breaks = 0
    for n in range(1, 13):
        g, meta = fb.abc_graph(n, _perm(n, 1))
        xs, ys = meta.parts[sides[0]], meta.parts[sides[1]]
        cases = [g] + [_toggle(g, [(x, y)]) for x in xs for y in ys]
        for i, x in enumerate(xs):
            seen = [y for y in ys if g.has_edge(x, y)]
            unseen = [y for y in ys if not g.has_edge(x, y)]
            if seen and unseen:
                y_off = seen[i % len(seen)]
                y_on = unseen[(i * 7) % len(unseen)]
                cases.append(_toggle(g, [(x, y_off), (x, y_on)]))
        for h in cases:
            got = _outcome(fb.recover_half_graph_orders, h, xs, ys)
            assert got == _outcome(pairloop_recover_half_graph_orders, h, xs, ys)
            rule_breaks += isinstance(got, str) and "order rule" in got
    assert rule_breaks > 0


@given(
    st.integers(1, 30),
    st.integers(1, 3),
    st.sampled_from([4, 8, 16, 32]),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=300, deadline=None)
def test_k2p_counters_match_pair_loop(n, p_num, p_den, seed):
    g = random_graph(n, p_num, p_den, seed)
    for p in (2, 3, 4):
        assert _k2p_free(g.rows, p) == pairloop_k2p_free(g, p)


@pytest.mark.parametrize(
    "family",
    [lambda: fb.point_box_incidence(4, 4), lambda: fb.hypercube(4), lambda: fb.g_k(2)],
    ids=["H44", "Q4", "gk2"],
)
def test_k2p_counters_match_pair_loop_on_families(family):
    g, _ = family()
    for p in (2, 3, 4):
        assert _k2p_free(g.rows, p) == pairloop_k2p_free(g, p)
