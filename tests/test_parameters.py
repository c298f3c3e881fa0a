import itertools
import math
import re

import pytest

import funbox as fb
from funbox.campaigns import random_graph
from funbox.graphs import GraphError, SizeLimitError
from funbox.parameters import _arg_system
from funbox.rng import SplitMix64

from oracles import (
    naive_fun_vertex,
    naive_is_function_of,
    naive_is_threshold,
    naive_sd_pair,
    restricted_conflict_requirements,
)

K5 = fb.from_edge_list(5, list(itertools.combinations(range(5), 2)))
P4 = fb.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
C4 = fb.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = fb.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
STAR3 = fb.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])


# ---------------------------------------------------------------- sd_pair

def test_sd_pair_twins_in_clique():
    assert fb.sd_pair(K5, 0, 1) == 0


def test_sd_pair_p4():
    assert fb.sd_pair(P4, 0, 1) == 1
    assert fb.sd_pair(P4, 1, 2) == 2


def test_sd_pair_symmetric():
    for x in range(5):
        for y in range(x + 1, 5):
            assert fb.sd_pair(C5, x, y) == fb.sd_pair(C5, y, x)


def test_sd_pair_rejects_equal_vertices():
    with pytest.raises(GraphError):
        fb.sd_pair(P4, 2, 2)


# ---------------------------------------------------------------- sd_graph

def test_sd_graph_single_vertex_is_zero():
    assert fb.sd_graph(fb.from_edge_list(1, [])) == 0


def test_sd_graph_clique_is_zero():
    assert fb.sd_graph(fb.from_edge_list(4, list(itertools.combinations(range(4), 2)))) == 0


def test_sd_graph_c5():
    assert fb.sd_graph(C5) == 2


def test_sd_graph_size_guard():
    big = fb.from_edge_list(15, [])
    with pytest.raises(SizeLimitError, match="14"):
        fb.sd_graph(big)
    assert fb.sd_graph(big, max_n=15) == 0


def test_funbox_max_n_env_changes_no_guard(monkeypatch):
    small = random_graph(9, 1, 2, 5)
    big = fb.from_edge_list(15, [])
    searches = (fb.sd_graph, fb.fun_graph, fb.fun_vertices)
    answers = [search(small) for search in searches]
    for value in ("5", "15", "abc"):
        monkeypatch.setenv("FUNBOX_MAX_N", value)
        assert [search(small) for search in searches] == answers
        for search in searches:
            with pytest.raises(SizeLimitError, match="guard is 1[24] vertices"):
                search(big)


def test_bad_max_n_is_a_graph_error_naming_its_source():
    g = fb.from_edge_list(2, [(0, 1)])
    for bad in (-1, True, 3.0, "12"):
        with pytest.raises(GraphError, match="max_n / --max-n must be a non-negative integer"):
            fb.fun_graph(g, max_n=bad)
    with pytest.raises(SizeLimitError, match="guard is 0 vertices"):
        fb.sd_graph(g, max_n=0)
    over = r"fun_graph guard is 1 vertices \(got 2\); raise max_n / --max-n"
    with pytest.raises(SizeLimitError, match=over):
        fb.fun_graph(g, max_n=1)


# ---------------------------------------------------------------- is_function_of

def test_twins_are_functions_of_each_other():
    ok, _ = fb.is_function_of(K5, 1, [0])
    assert ok


def test_is_function_of_c5_two_args():
    ok, _ = fb.is_function_of(C5, 0, [1, 4])
    assert ok


def test_is_function_of_c5_counterexample():
    ok, pair = fb.is_function_of(C5, 0, [2])
    assert not ok
    # both class members adjacent to 2 but split on adjacency to 0
    z, zp = pair
    assert {z, zp} == {1, 3}
    assert C5.has_edge(z, 2) == C5.has_edge(zp, 2)
    assert C5.has_edge(0, z) != C5.has_edge(0, zp)


def test_is_function_of_rejects_target_in_args():
    with pytest.raises(GraphError):
        fb.is_function_of(C5, 0, [0, 1])


def test_hitting_set_equivalence_on_random_instances():
    # is_function_of(G, y, S) iff S hits every conflict requirement set
    from funbox.rng import SplitMix64

    rng = SplitMix64(20240817)
    for _ in range(1000):
        n = 3 + rng.below(10)  # 3..12
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        y = rng.below(n)
        s = {v for v in range(n) if v != y and rng.below(3) == 0}
        direct, _ = fb.is_function_of(g, y, s)
        s_mask = sum(1 << v for v in s)
        via_reqs = all(
            r & s_mask for r in restricted_conflict_requirements(g.rows, g.full_mask, y)
        )
        assert direct == via_reqs
        need, _, cover = _arg_system(g.rows, g.full_mask, y)
        hit = 0
        for v in s:
            hit |= cover[v]
        assert direct == (hit == need)
        assert direct == naive_is_function_of(g, y, s)


# ---------------------------------------------------------------- fun_vertex

def test_fun_vertex_isolated_and_dominating_are_zero():
    g = fb.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    assert fb.fun_vertex(g, 0)[0] == 0  # dominating
    lonely = fb.from_edge_list(3, [(1, 2)])
    assert fb.fun_vertex(lonely, 0)[0] == 0  # isolated


def test_fun_vertex_c5_is_two():
    for y in range(5):
        k, w = fb.fun_vertex(C5, y)
        assert k == 2
        assert fb.witness_is_valid(C5, w)


def test_fun_vertex_q3_antipodal_negation():
    q3, _ = fb.hypercube(3)
    for y in range(8):
        k, w = fb.fun_vertex(q3, y)
        assert k == 1
        assert w.args == (y ^ 7,)
        assert (w.predict(0), w.predict(1)) == (1, 0)


def test_fun_vertex_matches_naive_enumeration():
    from funbox.rng import SplitMix64

    rng = SplitMix64(7)
    for _ in range(100):
        n = 3 + rng.below(8)  # 3..10
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        for y in range(n):
            k, w = fb.fun_vertex(g, y)
            nk, nargs = naive_fun_vertex(g, y)
            assert (k, w.args) == (nk, nargs)
            assert fb.witness_is_valid(g, w)


def test_fun_vertex_degree_bounds():
    from funbox.rng import SplitMix64

    rng = SplitMix64(99)
    for _ in range(60):
        n = 2 + rng.below(11)
        g = random_graph(n, 1, 2, rng.next_u64())
        for y in range(n):
            k, _ = fb.fun_vertex(g, y)
            assert k <= g.degree(y)
            assert k <= n - 1 - g.degree(y)
            for x in range(n):
                if x != y:
                    assert k <= fb.sd_pair(g, x, y) + 1


# ---------------------------------------------------------------- fun_graph

def test_fun_graph_star_is_zero():
    assert fb.fun_graph(STAR3) == 0


def test_fun_graph_p4_is_one():
    assert fb.fun_graph(P4) == 1


def test_fun_graph_c5_is_two():
    assert fb.fun_graph(C5) == 2


def test_fun_graph_size_guard():
    big = fb.from_edge_list(13, [])
    with pytest.raises(SizeLimitError, match="12"):
        fb.fun_graph(big)
    assert fb.fun_graph(big, max_n=13) == 0


def test_fun_graph_zero_iff_threshold():
    from funbox.rng import SplitMix64

    rng = SplitMix64(5150)
    for _ in range(120):
        n = 2 + rng.below(8)  # 2..9
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        th = fb.is_threshold(g)
        assert th == naive_is_threshold(g)
        assert (fb.fun_graph(g) == 0) == th


# ---------------------------------------------------------------- pair_witness

def test_pair_witness_twins_identity():
    w = fb.pair_witness(K5, 0, 1, "distinguishers")
    assert w.args == (1,)
    assert (w.predict(0), w.predict(1)) == (0, 1)


def test_pair_witness_q3_antipodal_nondistinguishers():
    q3, _ = fb.hypercube(3)
    w = fb.pair_witness(q3, 0, 7, "nondistinguishers")
    assert w.args == (7,)
    assert (w.predict(0), w.predict(1)) == (1, 0)


def test_pair_witness_p4_distinguishers():
    w = fb.pair_witness(P4, 0, 1, "distinguishers")
    assert w.args == (1, 2)
    assert w.origin == "pair-distinguishers"
    assert fb.witness_is_valid(P4, w)
    # table depends only on y's bit
    assert [w.predict(m) for m in range(4)] == [0, 1, 0, 1]


def test_pair_witness_arities():
    g = random_graph(9, 1, 2, 31337)
    for x in range(g.n):
        for y in range(g.n):
            if x == y:
                continue
            d = fb.sd_pair(g, x, y)
            assert fb.pair_witness(g, x, y, "distinguishers").arity == d + 1
            assert fb.pair_witness(g, x, y, "nondistinguishers").arity == g.n - 1 - d


@pytest.mark.parametrize(
    "g,x,y,mode,error,message",
    [
        (P4, 1, 1, "distinguishers", GraphError, "two distinct vertices"),
        (P4, 0, 1, "both", GraphError, "unknown pair_witness mode: 'both'"),
        # centre against a leaf: y plus the 25 other leaves
        (fb.from_edge_list(27, [(0, v) for v in range(1, 27)]), 0, 1, "distinguishers",
         SizeLimitError, r"2\^26 entries \(limit 2\^24\)"),
    ],
    ids=["same-vertex", "unknown-mode", "star-k1-26-over-arity-limit"],
)
def test_pair_witness_refusals(g, x, y, mode, error, message):
    with pytest.raises(error, match=message):
        fb.pair_witness(g, x, y, mode)


def test_witness_json_round_trip():
    w = fb.pair_witness(P4, 0, 1, "distinguishers")
    from funbox.parameters import witness_from_json, witness_to_json

    data = witness_to_json(w)
    assert data["table_bits"] == "0101"
    assert witness_from_json(data) == w


@pytest.mark.parametrize("k", range(11))
def test_table_bits_match_per_bit_definition(k):
    from funbox.parameters import witness_from_json, witness_to_json

    rng = SplitMix64(900 + k)
    size = 1 << k
    # random tables run to about 2 * size bits, so most have bits above the table
    randoms = [sum(rng.next_u64() << 64 * i for i in range(size // 32 + 1)) for _ in range(5)]
    tables = [0, (1 << size) - 1, -1, -(1 << size) - 5, *randoms, -randoms[0]]
    for table in tables:
        w = fb.Witness(0, tuple(range(1, k + 1)), table, "test")
        bits = w.table_bits()
        assert bits == "".join(str(table >> m & 1) for m in range(size))
        back = witness_from_json(witness_to_json(w)).table
        assert back == sum(1 << m for m, ch in enumerate(bits) if ch == "1")
        assert back == table & ((1 << size) - 1)


@pytest.mark.parametrize("target", [9, -1])
def test_witness_is_valid_rejects_out_of_range_target(target):
    w = fb.Witness(target, (0, 1), 0, "test")
    with pytest.raises(GraphError, match="out of range"):
        fb.witness_is_valid(C5, w)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"args": [1], "table_bits": "01", "origin": "x"},
        {"target": 0, "args": 5, "table_bits": "01", "origin": "x"},
        {"target": "a", "args": [1], "table_bits": "01", "origin": "x"},
        {"target": True, "args": [1], "table_bits": "01", "origin": "x"},
        {"target": 0, "args": [1.0], "table_bits": "01", "origin": "x"},
        {"target": 0, "args": [False], "table_bits": "01", "origin": "x"},
        {"target": 0, "args": [1], "table_bits": 1, "origin": "x"},
        {"target": 0, "args": [1], "table_bits": "01", "origin": None},
        {"target": 0, "args": [1], "table_bits": "01"},
        {"target": 0, "args": [1], "table_bits": "0", "origin": "x"},
        {"target": 0, "args": [1], "table_bits": "0a", "origin": "x"},
        {"target": 0, "args": [1], "table_bits": "0 ", "origin": "x"},
        {"target": 0, "args": [1, 2], "table_bits": "0_11", "origin": "x"},
    ],
    ids=[
        "top-level-list",
        "missing-target",
        "args-not-list",
        "target-string",
        "target-bool",
        "arg-float",
        "arg-bool",
        "table-bits-int",
        "origin-none",
        "missing-origin",
        "table-bits-too-short",
        "table-bits-not-binary",
        "table-bits-space",
        "table-bits-underscore",
    ],
)
def test_witness_from_json_rejects_bad_shapes(data):
    from funbox.parameters import witness_from_json

    with pytest.raises(GraphError):
        witness_from_json(data)


# ---------------------------------------------------------------- structure_scan

def test_structure_scan_c4():
    rep = fb.structure_scan(C4, 2)
    assert set(rep.twins) == {(0, 2), (1, 3)}
    assert rep.triangle_free


def test_structure_scan_q4_k23_free():
    q4, _ = fb.hypercube(4)
    rep = fb.structure_scan(q4, 3)
    assert rep.k2p_free and rep.triangle_free


def test_structure_scan_star_threshold():
    assert fb.structure_scan(STAR3, 2).threshold


def test_structure_scan_anti_twins():
    rep = fb.structure_scan(C4, 2)
    assert (0, 1) in rep.anti_twins
    for x, y in rep.anti_twins:
        assert fb.sd_pair(C4, x, y) == C4.n - 2
    for x, y in rep.twins:
        assert fb.sd_pair(C4, x, y) == 0


def test_sd_pair_and_structure_scan_match_naive_sd_on_seeded_graphs():
    rng = SplitMix64(1313)
    seen_twins = seen_anti = 0
    for _ in range(300):
        n = 2 + rng.below(12)  # 2..13
        g = random_graph(n, rng.below(5), 4, rng.next_u64())
        sd = {
            (x, y): naive_sd_pair(g, x, y) for x, y in itertools.combinations(range(n), 2)
        }
        for (x, y), d in sd.items():
            assert fb.sd_pair(g, x, y) == d == fb.sd_pair(g, y, x)
        rep = fb.structure_scan(g, 2)
        assert rep.twins == tuple(pair for pair, d in sd.items() if d == 0)
        assert rep.anti_twins == tuple(pair for pair, d in sd.items() if d == n - 2)
        seen_twins += bool(rep.twins)
        seen_anti += bool(rep.anti_twins) and n > 2
    assert seen_twins > 50 and seen_anti > 10


def test_structure_scan_rejects_small_p():
    with pytest.raises(GraphError):
        fb.structure_scan(C4, 1)


# ---------------------------------------------------------------- half graph / ABC recognition

def test_recover_half_graph_round_trip():
    g, meta = fb.half_graph(3)
    ox, oy = fb.recover_half_graph_orders(g, meta.parts["X"], meta.parts["Y"])
    assert ox == list(meta.parts["X"])
    assert oy == list(meta.parts["Y"])


def test_recover_half_graph_empty_m1():
    g = fb.from_edge_list(2, [])
    assert fb.recover_half_graph_orders(g, [0], [1]) == ([0], [1])


def test_recover_half_graph_rejects_complete_bipartite():
    g = fb.from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(GraphError, match="not a half graph"):
        fb.recover_half_graph_orders(g, [0, 1], [2, 3])


def test_recover_half_graph_rejects_size_mismatch():
    g = fb.from_edge_list(3, [])
    with pytest.raises(GraphError):
        fb.recover_half_graph_orders(g, [0], [1, 2])


def test_recover_half_graph_rejects_overlapping_sides():
    g = fb.from_edge_list(3, [])
    with pytest.raises(GraphError, match="must be disjoint"):
        fb.recover_half_graph_orders(g, [0, 1], [1, 2])


_ORDER_RULE = re.compile(r"not a half graph: pair \((\d+),(\d+)\) violates the order rule")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_recover_half_graph_is_exact_on_every_small_pattern(m):
    """All 2^(m*m) X-Y patterns: accepted iff some pair of orders realizes
    x_i ~ y_j iff i < j (brute force), and each refusal names a pair that
    breaks that rule under the degree orders."""
    xs, ys = list(range(m)), list(range(m, 2 * m))
    pairs = [(x, y) for x in xs for y in ys]
    realizable = {
        frozenset((x, y) for i, x in enumerate(ox) for j, y in enumerate(oy) if i < j)
        for ox in itertools.permutations(xs)
        for oy in itertools.permutations(ys)
    }
    assert len(realizable) == math.factorial(m) ** 2
    accepted = 0
    for bits in range(1 << len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        g = fb.from_edge_list(2 * m, edges)
        if edges in realizable:
            ox, oy = fb.recover_half_graph_orders(g, xs, ys)
            assert {(x, y) for i, x in enumerate(ox) for y in oy[i + 1:]} == edges
            accepted += 1
            continue
        with pytest.raises(GraphError) as exc:
            fb.recover_half_graph_orders(g, xs, ys)
        found = _ORDER_RULE.fullmatch(str(exc.value))
        assert found, str(exc.value)
        x, y = int(found[1]), int(found[2])
        ox = sorted(xs, key=lambda u: -sum((u, v) in edges for v in ys))
        oy = sorted(ys, key=lambda v: sum((u, v) in edges for u in xs))
        assert ((x, y) in edges) != (ox.index(x) < oy.index(y))
    assert accepted == len(realizable)


def test_check_abc_partition_trivial():
    g, meta = fb.abc_graph(1)
    assert g.edge_count() == 0
    rep = fb.check_abc_partition(g, meta.parts["A"], meta.parts["B"], meta.parts["C"])
    assert rep.n == 1


def test_check_abc_partition_perm_orders_differ():
    g, meta = fb.abc_graph(4, (2, 1, 4, 3))
    rep = fb.check_abc_partition(g, meta.parts["A"], meta.parts["B"], meta.parts["C"])
    assert rep.order_b_ab != rep.order_b_bc
    assert rep.order_b_bc == meta.parts["B_by_c"]


def test_check_abc_partition_rejects_gk_parts():
    g, meta = fb.g_k(2)
    with pytest.raises(GraphError, match="equal-sized"):
        fb.check_abc_partition(g, meta.parts["A"], meta.parts["B"], meta.parts["C"])


_ABC2_EDGES = list(fb.abc_graph(2)[0].edges())  # A = {0, 1}, B = {2, 3}, C = {4, 5}


@pytest.mark.parametrize(
    "edges,parts,message",
    [
        (_ABC2_EDGES, ([0, 1], [1, 2], [4, 5]), "pairwise disjoint"),
        (_ABC2_EDGES, ([0], [2], [4]), "cover every vertex"),
        (_ABC2_EDGES[1:], ([0, 1], [2, 3], [4, 5]), r"A is not a clique: \(0,1\) missing"),
        (_ABC2_EDGES + [(0, 4)], ([0, 1], [2, 3], [4, 5]), r"forbidden A-C edge \(0,4\)"),
    ],
    ids=["overlap", "no-cover", "not-a-clique", "a-c-edge"],
)
def test_check_abc_partition_refusals(edges, parts, message):
    with pytest.raises(GraphError, match=message):
        fb.check_abc_partition(fb.from_edge_list(6, edges), *parts)


# ---------------------------------------------------------------- refute_function

def test_refute_q4_hand_example():
    q4, _ = fb.hypercube(4)
    pair = fb.refute_function(q4, 0b0000, [0b1111], 1, 3)
    assert (pair.u, pair.w) == (0b0001, 0b0011)
    ok, _ = fb.is_function_of(q4, 0, [15])
    assert not ok


def test_refute_h44_cross_check():
    g, _ = fb.point_box_incidence(4, 4)
    from funbox.rng import SplitMix64

    rng = SplitMix64(404)
    for _ in range(25):
        x = rng.below(g.n)
        s = rng.below(g.n)
        while s == x:
            s = rng.below(g.n)
        pair = fb.refute_function(g, x, [s], 1, 2)
        assert g.has_edge(x, pair.u) and not g.has_edge(x, pair.w)
        assert g.has_edge(pair.u, s) == g.has_edge(pair.w, s) == False
        ok, _ = fb.is_function_of(g, x, [s])
        assert not ok


def test_refute_star_premises_violated():
    star5 = fb.from_edge_list(6, [(0, i) for i in range(1, 6)])
    with pytest.raises(fb.PremiseViolation) as err:
        fb.refute_function(star5, 0, [1], 1, 2)
    assert any("min degree 1" in v for v in err.value.violations)


def test_refute_q4_premise_report_lists_all():
    # triangle-rich graph fails several premises at once
    k5 = fb.from_edge_list(5, list(itertools.combinations(range(5), 2)))
    with pytest.raises(fb.PremiseViolation) as err:
        fb.refute_function(k5, 0, [1], 1, 2)
    assert len(err.value.violations) >= 2


@pytest.mark.parametrize(
    "x,args,k,p,message",
    [
        (0, [0], 1, 3, "x may not appear in the argument set"),
        (0, [1, 2], 1, 3, r"expected \|S\| = 1, got 2"),
        (0, [1], 1, 1, "p >= 2"),
    ],
    ids=["x-in-args", "wrong-size", "p-below-2"],
)
def test_refute_rejects_bad_arguments(x, args, k, p, message):
    q4, _ = fb.hypercube(4)
    with pytest.raises(GraphError, match=message):
        fb.refute_function(q4, x, args, k, p)
