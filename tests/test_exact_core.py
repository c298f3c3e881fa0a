"""The branching searches and the transposed hitting-set kernel against oracles.

``sd_graph`` and ``fun_graph`` branch on witnesses into disjoint subtrees and
``fun_vertex`` runs on the transposed hitting-set kernel, a stateless search
that branches on the untried vertices of the lowest pending requirement; the
full subset sweeps, the branch search that dedups its masks through a
``seen`` set, the list-based kernel, the kernel that rebuilt restricted
candidate lists at every node, and the searches over cached hitter lists
with and without a nogood table live on in ``oracles`` as references. A
digest pins every exact answer on a seeded corpus.
"""

import hashlib
import itertools
import json
from functools import partial
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox import graphs
from funbox.campaigns import random_graph, random_interval_rep
from funbox.graphs import bit_ids
from funbox.parameters import (
    _arg_system,
    _branch_search,
    _fun_branch,
    _fun_floor,
    _hit,
    _min_args,
    _min_pair_sd,
    _sd_branch,
    _sd_floor,
)
from funbox.rng import SplitMix64
from oracles import (
    Hitters,
    hitterlist_hit,
    listbb_min_args,
    naive_fun_graph,
    naive_sd_graph,
    naive_sd_pair,
    nogood_hit,
    restricted_min_args,
    seen_branch_search,
    sweep_fun_graph,
    sweep_sd_graph,
)


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield fb.from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


@pytest.mark.parametrize("n", range(6))
def test_every_small_graph_matches_naive(n):
    for g in _all_graphs(n):
        assert fb.sd_graph(g) == naive_sd_graph(g)
        assert fb.fun_graph(g) == naive_fun_graph(g)


@pytest.mark.parametrize("p_num", [1, 2, 3])
def test_random_graphs_match_sweeps(p_num):
    rng = SplitMix64(300 + p_num)
    for n in range(2, 15):
        g = random_graph(n, p_num, 4, rng.next_u64())
        assert fb.sd_graph(g) == sweep_sd_graph(g)
        assert fb.fun_graph(g, max_n=14) == sweep_fun_graph(g)


def test_interval_graphs_match_sweeps():
    rng = SplitMix64(310)
    for n in list(range(1, 15)) * 2:
        g = fb.graph_from_intervals(random_interval_rep(n, rng.next_u64(), 40))
        assert fb.sd_graph(g) == sweep_sd_graph(g)
        assert fb.fun_graph(g, max_n=14) == sweep_fun_graph(g)


def test_fun_vertex_matches_list_kernel():
    rng = SplitMix64(320)
    for n in range(2, 25):
        g = random_graph(n, 1, 2, rng.next_u64())
        for y in range(n):
            k, w = fb.fun_vertex(g, y)
            assert (k, list(w.args)) == listbb_min_args(g.rows, g.full_mask, y)


def test_min_pair_sd_is_least_or_enough_and_reached():
    rng = SplitMix64(330)
    for _ in range(200):
        n = 2 + rng.below(10)
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        mask = rng.below(1 << n) | 3
        verts = [v for v in range(n) if mask >> v & 1]
        h = fb.Graph(len(verts), [
            sum(1 << j for j, w in enumerate(verts) if g.rows[v] >> w & 1) for v in verts
        ])
        least = min(naive_sd_pair(h, i, j) for i, j in itertools.combinations(range(h.n), 2))
        enough = rng.below(4) - 1
        d, x, y = _min_pair_sd(g.rows, mask, enough)
        assert d == least or least <= d <= enough
        assert x != y and mask >> x & 1 and mask >> y & 1
        assert ((g.rows[x] ^ g.rows[y]) & mask & ~(1 << x | 1 << y)).bit_count() == d


# ------------------------------------------------------------ branch searches

@st.composite
def kernel_graphs(draw, max_n=24):
    """G(n, p) with n <= ``max_n`` and p in {1/4, 1/2, 3/4}, or an interval graph."""
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 2**64 - 1))
    if draw(st.booleans()):
        return fb.graph_from_intervals(random_interval_rep(n, seed, draw(st.integers(2, 60))))
    return random_graph(n, draw(st.sampled_from([1, 2, 3])), 4, seed)


_SEARCHES = [(_sd_branch, _sd_floor), (_fun_branch, _fun_floor)]


def _recorded(step):
    masks = []

    def recorded(mask, best):
        masks.append(mask)
        return step(mask, best)

    return recorded, masks


@pytest.mark.parametrize("n", range(9))
def test_branching_on_the_whole_mask_steps_every_subset_once(n):
    step, masks = _recorded(lambda mask, best: (best, mask))
    assert _branch_search((1 << n) - 1, step, lambda best: 0) == 0
    assert sorted(masks) == list(range(1 << n))


@given(kernel_graphs(max_n=12))
@settings(max_examples=200, deadline=None)
def test_branch_search_matches_seen_search(g):
    values = []
    for branch, floor in _SEARCHES:
        step = partial(branch, g.rows)
        value = _branch_search(g.full_mask, step, floor)
        assert value == seen_branch_search(g.full_mask, step, floor)
        values.append(value)
    if g.n <= 8:
        assert values == [naive_sd_graph(g), naive_fun_graph(g)]


def test_branch_search_steps_each_mask_once_and_fewer_than_seen_search():
    # the sizes of the `exact` benchmark: G(n, 1/2) at n = 15..17 and
    # interval graphs at n = 15, 16
    rng = SplitMix64(370)
    corpus = [random_graph(n, 1, 2, rng.next_u64()) for n in (15, 15, 16, 17)]
    corpus += [
        fb.graph_from_intervals(random_interval_rep(n, rng.next_u64(), 1000))
        for n in (15, 15, 15, 16, 16)
    ]
    steps = {_branch_search: 0, seen_branch_search: 0}
    for g in corpus:
        for branch, floor in _SEARCHES:
            for search in steps:
                step, masks = _recorded(partial(branch, g.rows))
                search(g.full_mask, step, floor)
                assert len(set(masks)) == len(masks)
                steps[search] += len(masks)
    assert steps[_branch_search] < steps[seen_branch_search]


# ---------------------------------------------------------------- hitter lists

def _check_min_args(g, y):
    got = _min_args(g.rows, g.full_mask, y)
    assert got == restricted_min_args(g.rows, g.full_mask, y)
    assert got == listbb_min_args(g.rows, g.full_mask, y)


@given(kernel_graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_min_args_matches_restricted_and_list_kernels(g, data):
    _check_min_args(g, data.draw(st.integers(0, g.n - 1)))


@pytest.mark.parametrize(
    "family, samples",
    [
        (lambda: fb.point_box_incidence(4, 4), 8),
        (lambda: fb.hypercube(4), None),
        (lambda: fb.g_k(2), None),
    ],
    ids=["H44", "Q4", "gk2"],
)
def test_min_args_matches_restricted_and_list_kernels_on_families(family, samples):
    g, _ = family()
    if samples is None:
        ys = range(g.n)
    else:
        # the first vertex of each side plus seeded draws
        rng = SplitMix64(340)
        ys = [0, g.n - 1] + [rng.below(g.n) for _ in range(samples - 2)]
    for y in ys:
        _check_min_args(g, y)


@st.composite
def hitting_instances(draw):
    """Up to 8 nonempty requirements over at most 10 elements, a pending
    subset of them, and a mask of elements already tried."""
    elems = draw(st.integers(1, 10))
    reqs = draw(st.lists(st.integers(1, (1 << elems) - 1), max_size=8))
    need = draw(st.integers(0, (1 << len(reqs)) - 1))
    tried = draw(st.integers(0, (1 << elems) - 1))
    return elems, reqs, need, tried


def _brute_hittable(elems, reqs, need, budget, tried):
    pending = [r for i, r in enumerate(reqs) if need >> i & 1]
    free = [e for e in range(elems) if not tried >> e & 1]
    return any(
        all(r & sum(1 << e for e in s) for r in pending)
        for size in range(min(budget, len(free)) + 1)
        for s in itertools.combinations(free, size)
    )


def _cover_of(elems, reqs):
    return [sum(1 << i for i, r in enumerate(reqs) if r >> e & 1) for e in range(elems)]


@given(hitting_instances())
@settings(max_examples=400, deadline=None)
def test_hit_matches_subset_enumeration(case):
    elems, reqs, need, tried = case
    cover = _cover_of(elems, reqs)
    for mask in (0, tried):
        for budget in range(elems + 2):
            got = _hit(need, budget, reqs, cover, mask)
            assert (got is not None) == _brute_hittable(elems, reqs, need, budget, mask)
            if got is not None:
                assert got.bit_count() <= budget and not got & mask
                assert all(r & got for i, r in enumerate(reqs) if need >> i & 1)


@st.composite
def sparse_instances(draw):
    """Up to 12 requirements of 2 or 3 elements out of at most 10, drawn from
    a seed so that hitting them often takes 3 or more elements and a search
    often fails on its first branches, and up to 4 (need, tried, fewer,
    slack) draws: ``fewer`` a subset of ``tried``, ``slack`` in -1..1."""
    elems = draw(st.integers(3, 10))
    rng = SplitMix64(draw(st.integers(0, 2**64 - 1)))
    reqs = []
    for _ in range(draw(st.integers(0, 12))):
        r = 0
        while r.bit_count() < 2 + rng.below(2):
            r |= 1 << rng.below(elems)
        reqs.append(r)
    draws = []
    for _ in range(draw(st.integers(1, 4))):
        need = rng.below(1 << len(reqs)) | draw(st.sampled_from([0, (1 << len(reqs)) - 1]))
        tried = rng.below(1 << elems) & rng.below(1 << elems)
        fewer = tried & rng.below(1 << elems)
        draws.append((need, tried, fewer, draw(st.integers(-1, 1))))
    return elems, reqs, draws


@given(sparse_instances())
@settings(max_examples=300, deadline=None)
def test_hit_with_nogoods_matches_hitter_list_search(case):
    """``_hit``, ``nogood_hit`` on one system across a sequence of queries,
    and ``hitterlist_hit`` on a fresh system per query give the same sets.

    Each drawn need is asked at its least feasible budget plus ``slack``,
    where a successful nogood search keeps the failures on its way; then
    its need less each element's cover at one budget lower, at the same
    budget and with the smaller ``fewer`` mask, and the need itself at one
    budget more and with ``fewer``. Many of these meet a recorded failure
    that they may not use, which a reversed subsumption test would. A failed
    query must leave the nogood table as it was."""
    elems, reqs, draws = case
    cover = _cover_of(elems, reqs)
    hitters = Hitters(reqs, cover)

    def check(need, budget, tried):
        want = hitterlist_hit(need, budget, Hitters(reqs, cover), tried)
        assert _hit(need, budget, reqs, cover, tried) == want
        table = {key: list(entries) for key, entries in hitters.nogoods.items()}
        assert nogood_hit(need, budget, hitters, tried) == want
        if want is None:  # a failed search leaves the table as it found it
            assert hitters.nogoods == table

    for need, tried, fewer, slack in draws:
        least = next(
            (b for b in range(elems + 1)
             if hitterlist_hit(need, b, Hitters(reqs, cover), tried) is not None),
            elems,
        )
        budget = least + slack
        check(need, budget, tried)
        for c in cover:
            for b, t in ((budget - 1, tried), (budget, tried), (budget - 1, fewer)):
                check(need & ~c, b, t)
        check(need, budget + 1, tried)
        check(need, budget, fewer)


def test_hit_with_nogoods_matches_hitter_list_search_on_argument_systems():
    rng = SplitMix64(355)
    for _ in range(100):
        n = 4 + rng.below(12)
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        y = rng.below(n)
        need, reqs, cover = _arg_system(g.rows, g.full_mask, y)
        hitters = Hitters(reqs, cover)
        for _ in range(12):
            sub = need & rng.below(1 << need.bit_length())
            tried = rng.below(1 << n) & ~(1 << y)
            for budget, mask in ((2, tried), (3, tried), (2, tried & rng.below(1 << n))):
                want = hitterlist_hit(sub, budget, Hitters(reqs, cover), mask)
                assert nogood_hit(sub, budget, hitters, mask) == want
                assert _hit(sub, budget, reqs, cover, mask) == want


def test_hit_matches_subset_enumeration_on_argument_systems():
    rng = SplitMix64(350)
    for _ in range(150):
        n = 2 + rng.below(10)
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        y = rng.below(n)
        need, reqs, cover = _arg_system(g.rows, g.full_mask, y)
        tried = rng.below(1 << n) & ~(1 << y)
        for budget in range(n):
            got = _hit(need, budget, reqs, cover, tried)
            assert (got is not None) == _brute_hittable(n, reqs, need, budget, tried)


@given(kernel_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_banded_transpose_matches_one_band(g, data):
    y = data.draw(st.integers(0, g.n - 1))
    need, reqs, cover = _arg_system(g.rows, g.full_mask, y)
    assert need == (1 << len(reqs)) - 1
    for e in range(g.n):
        assert cover[e] == sum(1 << i for i, r in enumerate(reqs) if r >> e & 1)
    for text_max_n in (1, 2, 7):
        with patch.object(graphs, "_TEXT_MAX_N", text_max_n):
            banded = _arg_system(g.rows, g.full_mask, y)
        assert banded == (need, reqs, cover)


def test_hitter_lists_hold_each_requirements_elements():
    g = random_graph(12, 1, 2, 360)
    _, reqs, cover = _arg_system(g.rows, g.full_mask, 0)
    hitters = Hitters(reqs, cover)
    for i, r in enumerate(reqs):
        assert hitters[1 << i] == [(1 << e, cover[e]) for e in bit_ids(r)]


# ------------------------------------------------------------- pinned answers

# sha256 over the JSON records [n, [[k, args] per vertex], fun_graph, sd_graph]
# of the corpus below, recorded before nogoods and the branch-search cuts
PINNED_EXACT_DIGEST = "47574ca55731cb2c89dd26c896920af0593fc46730ba64dee7b0c840b397c42b"


def _pinned_corpus():
    """300 seeded graphs with n <= 20: G(n, p) at p = 1/4, 1/2, 3/4, and every
    third one an interval graph with a coordinate range drawn from 2..61."""
    rng = SplitMix64(20261018)
    for i in range(300):
        n = 1 + rng.below(20)
        if i % 3 == 2:
            yield fb.graph_from_intervals(
                random_interval_rep(n, rng.next_u64(), 2 + rng.below(60))
            )
        else:
            yield random_graph(n, 1 + rng.below(3), 4, rng.next_u64())


def test_exact_answers_match_pinned_digest():
    digest = hashlib.sha256()
    for g in _pinned_corpus():
        args = [[k, list(w.args)] for k, w in (fb.fun_vertex(g, y) for y in range(g.n))]
        record = [g.n, args, fb.fun_graph(g, max_n=g.n), fb.sd_graph(g, max_n=g.n)]
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == PINNED_EXACT_DIGEST
