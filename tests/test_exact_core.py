"""The branching searches and the transposed hitting-set kernel against oracles.

``sd_graph`` and ``fun_graph`` branch on witnesses and ``fun_vertex`` runs on
the transposed hitting-set kernel; the full subset sweeps and the list-based
kernel they replaced live on in ``oracles`` as references.
"""

import itertools

import pytest

import funbox as fb
from funbox.campaigns import random_graph, random_interval_rep
from funbox.parameters import _min_pair_sd
from funbox.rng import SplitMix64
from oracles import (
    listbb_min_args,
    naive_fun_graph,
    naive_sd_graph,
    naive_sd_pair,
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
