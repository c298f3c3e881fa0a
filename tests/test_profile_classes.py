"""Profile classes and the inline sd-lemma sweep against the loops they replaced.

``witness_is_valid``, ``is_function_of`` and ``_witness_from_args`` split the
vertices outside the arguments into classes by their adjacency profile
(``_profile_classes``) instead of computing each vertex's profile, and
``check_sd_lemma`` XORs the rows of each pair inline. The per-vertex and
per-pair loops live on in ``oracles``.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from funbox import intervals, parameters
from funbox.campaigns import random_graph, random_interval_rep
from funbox.graphs import Graph, bit_ids, mask_of
from funbox.intervals import PointRep, check_sd_lemma, normalize
from funbox.parameters import Witness, _profile_classes, is_function_of, witness_is_valid
from funbox.rng import SplitMix64
from oracles import (
    _profile,
    pairloop_check_sd_lemma,
    profileloop_is_function_of,
    profileloop_witness_is_valid,
    profileloop_witness_table,
)


@st.composite
def function_cases(draw):
    """G(n, p) with n <= 14 and p in {1/4, 1/2, 3/4}, a target y and up to
    8 arguments drawn from the other vertices: possibly none, repeated or
    in any order."""
    n = draw(st.integers(1, 14))
    g = random_graph(n, draw(st.sampled_from([1, 2, 3])), 4, draw(st.integers(0, 2**64 - 1)))
    y = draw(st.integers(0, n - 1))
    others = [v for v in range(n) if v != y]
    args = draw(st.lists(st.sampled_from(others), max_size=8)) if others else []
    tables = draw(st.lists(st.integers(0, (1 << (1 << len(args))) - 1), max_size=3))
    return g, y, args, tables


@given(function_cases())
@settings(max_examples=400, deadline=None)
def test_profile_classes_match_profile_loops(case):
    g, y, args, tables = case
    rest = g.full_mask & ~(1 << y) & ~mask_of(args, g.n)
    classes = _profile_classes(g.rows, args, rest)
    assert sorted(z for _, c in classes for z in bit_ids(c)) == list(bit_ids(rest))
    for m, c in classes:
        assert c and all(_profile(g.rows, tuple(args), z) == m for z in bit_ids(c))

    verdict = is_function_of(g, y, args)
    assert verdict == profileloop_is_function_of(g, y, args)

    with patch.object(parameters, "_emit", lambda g, w: w):
        built = parameters._witness_from_args(g, y, args, "test").table
    assert built == profileloop_witness_table(g, y, args)

    flips = [built ^ 1 << m for m in range(1 << len(args))]
    for table in [built, *flips, *tables]:
        w = Witness(y, tuple(args), table, "test")
        assert witness_is_valid(g, w) == profileloop_witness_is_valid(g, w)
    distinct = len(set(args)) == len(args)
    assert witness_is_valid(g, Witness(y, tuple(args), built, "test")) == (
        verdict[0] and distinct
    )


def _perturbed(g: Graph, pairs) -> Graph:
    rows = list(g.rows)
    for u, v in pairs:
        if u != v:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return Graph(g.n, rows)


@st.composite
def perturbed_point_reps(draw):
    """A point model on n <= 12 grid points and up to 4 pairs whose edge to flip."""
    n = draw(st.integers(1, 12))
    ranks = draw(st.permutations(range(1, 2 * n + 1)))
    rep = PointRep(points=tuple(tuple(sorted(ranks[2 * i : 2 * i + 2])) for i in range(n)))
    ids = st.integers(0, n - 1)
    return rep, draw(st.lists(st.tuples(ids, ids), max_size=4))


def _check_both(rep, pairs):
    """(check_sd_lemma, the pair-loop oracle) on ``rep``'s graph with ``pairs`` flipped."""
    g = _perturbed(intervals.graph_from_points(rep), pairs)
    with patch.object(intervals, "graph_from_points", lambda _: g):
        return check_sd_lemma(rep), pairloop_check_sd_lemma(rep)


@given(perturbed_point_reps())
@settings(max_examples=300, deadline=None)
def test_sd_lemma_matches_pair_loop_on_perturbed_graphs(case):
    fast, slow = _check_both(*case)
    assert (fast.pairs_checked, fast.violation) == (slow.pairs_checked, slow.violation)


def test_sd_lemma_pair_loop_reaches_both_outcomes():
    rng = SplitMix64(77)
    outcomes = set()
    for _ in range(200):
        n = 2 + rng.below(30)
        rep = normalize(random_interval_rep(n, rng.next_u64(), 4 * n))
        pairs = [(rng.below(n), rng.below(n)) for _ in range(rng.below(3))]
        fast, slow = _check_both(rep, pairs)
        assert fast == slow
        outcomes.add(fast.ok)
    assert outcomes == {True, False}


def test_conflict_pair_is_first_in_scan_order():
    # path 0-1-2-3-4 with y = 2 and no arguments: one class holding 0, 1, 3, 4;
    # the scan meets 0 (non-neighbour) first and 1 (neighbour) next
    g = Graph(5, [0b10, 0b101, 0b1010, 0b10100, 0b1000])
    assert is_function_of(g, 2, []) == (False, (0, 1))
    # with argument 1 the classes are {0} (adjacent to 1) and {3, 4}: 3 ~ 2, 4 !~ 2
    assert is_function_of(g, 2, [1]) == (False, (3, 4))
