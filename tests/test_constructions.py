import itertools
import re

import pytest

import funbox as fb
from funbox.constructions import FAMILY_SIZES, GEN_MAX_EDGES, abc_parts, check_size
from funbox.graphs import GraphError, SizeLimitError


# ---------------------------------------------------------------- half graph

def test_half_graph_n1_no_edges():
    g, _ = fb.half_graph(1)
    assert g.n == 2 and g.edge_count() == 0


def test_half_graph_n2_single_edge():
    g, meta = fb.half_graph(2)
    assert sorted(g.edges()) == [(0, 3)]  # x1 ~ y2 only
    assert g.labels[0] == "X:1" and g.labels[3] == "Y:2"


def test_half_graph_n3_edge_count():
    g, _ = fb.half_graph(3)
    assert g.edge_count() == 3  # pairs i < j in [3]^2


def test_half_graph_always_recoverable():
    for n in range(1, 8):
        g, meta = fb.half_graph(n)
        ox, oy = fb.recover_half_graph_orders(g, meta.parts["X"], meta.parts["Y"])
        assert ox == list(meta.parts["X"]) and oy == list(meta.parts["Y"])


# ---------------------------------------------------------------- abc graph

def test_abc_graph_n1_isolated():
    g, _ = fb.abc_graph(1)
    assert g.n == 3 and g.edge_count() == 0


def test_abc_graph_n2_identity_edges():
    g, _ = fb.abc_graph(2)
    # three clique edges plus a1-b2 and b1-c2
    assert sorted(g.edges()) == [(0, 1), (0, 3), (2, 3), (2, 5), (4, 5)]


def test_abc_graph_rejects_bad_perm():
    with pytest.raises(GraphError):
        fb.abc_graph(3, (1, 1, 2))


@pytest.mark.parametrize("n,perm", [(5, None), (5, (3, 1, 4, 5, 2)), (7, (7, 6, 5, 4, 3, 2, 1))])
def test_abc_graph_passes_checker(n, perm):
    g, meta = fb.abc_graph(n, perm)
    rep = fb.check_abc_partition(g, meta.parts["A"], meta.parts["B"], meta.parts["C"])
    assert rep.n == n
    assert rep.order_a == meta.parts["A"]
    assert rep.order_b_ab == meta.parts["B"]
    assert rep.order_b_bc == meta.parts["B_by_c"]
    assert rep.order_c == meta.parts["C"]


def test_abc_parts_from_labels():
    g, meta = fb.abc_graph(3, (2, 3, 1))
    a, b, c = abc_parts(g)
    assert tuple(a) == meta.parts["A"]
    assert tuple(b) == meta.parts["B"]
    assert tuple(c) == meta.parts["C"]


# ---------------------------------------------------------------- g_k

def test_gk_sizes():
    g, meta = fb.g_k(2)
    assert g.n == 32  # 2*k^3 + k^4
    assert len(meta.parts["A"]) == len(meta.parts["C"]) == 8
    assert len(meta.parts["B"]) == 16


def test_gk_seed_block_k2():
    _, meta = fb.g_k(2)
    b11 = sorted(
        (meta.vertex_data[v]["bx"], meta.vertex_data[v]["by"])
        for v in meta.parts["B"]
        if meta.vertex_data[v]["block"] == (1, 1)
    )
    assert b11 == [(1, 3), (2, 1), (3, 4), (4, 2)]


def test_gk_coordinates_in_range_and_k_per_line():
    for k in (2, 3):
        _, meta = fb.g_k(k)
        t = k ** 3
        xs = {}
        ys = {}
        for v in meta.parts["B"]:
            d = meta.vertex_data[v]
            assert 1 <= d["bx"] <= t and 1 <= d["by"] <= t
            xs[d["bx"]] = xs.get(d["bx"], 0) + 1
            ys[d["by"]] = ys.get(d["by"], 0) + 1
        assert all(c == k for c in xs.values()) and len(xs) == t
        assert all(c == k for c in ys.values()) and len(ys) == t


def test_gk_min_sd_at_least_k():
    for k in (2, 3):
        g, _ = fb.g_k(k)
        worst = min(
            fb.sd_pair(g, u, v) for u in range(g.n) for v in range(u + 1, g.n)
        )
        assert worst >= k


def test_gk_rejects_k1():
    with pytest.raises(GraphError):
        fb.g_k(1)


def test_gk_coordinate_distinguisher_counts():
    g, meta = fb.g_k(2)
    a_mask = sum(1 << v for v in meta.parts["A"])
    c_mask = sum(1 << v for v in meta.parts["C"])
    b_ids = meta.parts["B"]
    for i, u in enumerate(b_ids):
        for v in b_ids[i + 1:]:
            du, dv = meta.vertex_data[u], meta.vertex_data[v]
            diff = g.rows[u] ^ g.rows[v]
            assert (diff & a_mask).bit_count() == abs(du["bx"] - dv["bx"])
            assert (diff & c_mask).bit_count() == abs(du["by"] - dv["by"])


# ---------------------------------------------------------------- extend to ABC

def test_extend_gk_k2():
    g, meta = fb.g_k(2)
    big, bmeta, embed = fb.extend_gk_to_abc(g, meta)
    assert big.n == 48
    rep = fb.check_abc_partition(
        big, bmeta.parts["A"], bmeta.parts["B"], bmeta.parts["C"]
    )
    assert rep.n == 16
    for k in range(2, 6):  # k = 5 re-induces 875 of 1,875 vertices
        g, meta = fb.g_k(k)
        big, _, embed = fb.extend_gk_to_abc(g, meta)
        sub, _ = fb.induced_subgraph(big, sorted(embed.values()))
        assert fb.equal_labeled(sub, g)


def test_extend_gk_c_side_interleaving():
    k = 3
    g, meta = fb.g_k(k)
    big, bmeta, embed = fb.extend_gk_to_abc(g, meta)
    rep = fb.check_abc_partition(
        big, bmeta.parts["A"], bmeta.parts["B"], bmeta.parts["C"]
    )
    # originals sit every k-th position of the recovered C order
    old_c_new_ids = {embed[v] for v in meta.parts["C"]}
    positions = [
        idx for idx, v in enumerate(rep.order_c) if v in old_c_new_ids
    ]
    assert positions == [k * j for j in range(len(meta.parts["C"]))]
    # recovered B-side order on the C side steps through b_y groups
    by_of = {embed[v]: meta.vertex_data[v]["by"] for v in meta.parts["B"]}
    order_by = [by_of[v] for v in rep.order_b_bc]
    assert order_by == sorted(order_by)


def test_extend_requires_gk_labels():
    g, meta = fb.abc_graph(2)
    with pytest.raises(GraphError):
        fb.extend_gk_to_abc(g, meta)
    # labels of another g_k: the induced subgraph on the embedded ids could not be g
    with pytest.raises(GraphError) as exc:
        fb.extend_gk_to_abc(fb.g_k(3)[0], fb.g_k(2)[1])
    assert str(exc.value) == "extend_gk_to_abc got a graph on 135 vertices for labels on 32"


# ---------------------------------------------------------------- point-box incidence

def test_hni_level1_star():
    g, meta = fb.point_box_incidence(2, 1)
    assert g.n == 3
    box = meta.parts["Box"][0]
    assert g.degree(box) == 2


def test_hni_counts_33():
    g, meta = fb.point_box_incidence(3, 3)
    assert len(meta.parts["P"]) == 27
    assert len(meta.parts["Box"]) == 27


def test_hni_degrees_and_freeness_22():
    g, meta = fb.point_box_incidence(2, 2)
    assert all(g.degree(v) == 2 for v in range(g.n))
    scan = fb.structure_scan(g, 2)
    assert scan.k2p_free and scan.triangle_free


def test_hni_all_small_parameters():
    for n in range(1, 5):
        for i in range(1, n + 1):
            g, meta = fb.point_box_incidence(n, i)
            assert len(meta.parts["P"]) == n ** i
            assert len(meta.parts["Box"]) == i * n ** (i - 1)
            assert all(g.degree(v) == n for v in meta.parts["Box"])
            assert all(g.degree(v) == i for v in meta.parts["P"])


@pytest.mark.parametrize(
    "build",
    [lambda: fb.half_graph(0), lambda: fb.abc_graph(0), lambda: fb.point_box_incidence(0, 1)],
    ids=["half", "abc", "hni"],
)
def test_generators_reject_n_below_1(build):
    with pytest.raises(GraphError, match="n >= 1"):
        build()


def test_hni_rejects_bad_level():
    with pytest.raises(GraphError):
        fb.point_box_incidence(3, 4)


@pytest.mark.parametrize("n,i", [(7, 7), (16, 4), (10**6, 10**6)])
def test_hni_size_guard_before_building(n, i):
    # n^i + i*n^(i-1) vertices is over 2^16 in each case; the guard is checked
    # from the closed form, so even the last case returns at once
    with pytest.raises(SizeLimitError):
        fb.point_box_incidence(n, i)


# ---------------------------------------------------------------- hypercube

def test_hypercube_q1():
    g, _ = fb.hypercube(1)
    assert g.n == 2 and g.edge_count() == 1


def test_hypercube_q3():
    g, meta = fb.hypercube(3)
    assert g.n == 8 and g.edge_count() == 12
    assert g.labels[5] == "101"


def test_hypercube_q4_k23_free():
    g, _ = fb.hypercube(4)
    assert fb.structure_scan(g, 3).k2p_free


def test_hypercube_regular_bipartite():
    for n in (2, 3, 4):
        g, _ = fb.hypercube(n)
        assert all(g.degree(v) == n for v in range(g.n))
        assert all(
            (u.bit_count() + v.bit_count()) % 2 == 1 for u, v in g.edges()
        )


def test_hypercube_q4_satisfies_refutation_premises():
    g, _ = fb.hypercube(4)
    pair = fb.refute_function(g, 0, [1], 1, 3)  # no PremiseViolation
    ok, _ = fb.is_function_of(g, 0, [1])
    assert not ok and pair.u != pair.w


def test_hypercube_guard():
    with pytest.raises(SizeLimitError, match="hypercube with n=17 has 131072 vertices"):
        fb.hypercube(17)
    with pytest.raises(GraphError):
        fb.hypercube(0)


# ---------------------------------------------------------------- size rule

_REFUSAL = re.compile(
    r"(half|abc|gk|gk-abc|hni|hypercube|interval model) with [nki]=\d+(, i=\d+)? has "
    r"(at least )?(\d+|2\^\d+) (vertices|edges), more than the limit (65536|1048576)"
)


@pytest.mark.parametrize(
    "family, largest, nxt",
    [
        ("half", {"n": 1448}, {"n": 1449}),
        ("abc", {"n": 648}, {"n": 649}),
        ("interval model", {"n": 1448}, {"n": 1449}),
        ("gk", {"k": 5}, {"k": 6}),
        ("gk-abc", {"k": 5}, {"k": 6}),
        ("hni", {"n": 65535, "i": 1}, {"n": 65536, "i": 1}),
        ("hni", {"n": 255, "i": 2}, {"n": 256, "i": 2}),
        ("hni", {"n": 39, "i": 3}, {"n": 40, "i": 3}),
        ("hni", {"n": 15, "i": 4}, {"n": 16, "i": 4}),
        ("hni", {"n": 8, "i": 5}, {"n": 9, "i": 5}),
        ("hypercube", {"n": 16}, {"n": 17}),
    ],
)
def test_check_size_admits_the_largest_parameters_and_no_more(family, largest, nxt):
    check_size(family, **largest)
    with pytest.raises(SizeLimitError) as exc:
        check_size(family, **nxt)
    assert _REFUSAL.fullmatch(str(exc.value))


@pytest.mark.parametrize(
    "family, params, message",
    [
        ("abc", {"n": 649}, "abc with n=649 has 1051380 edges"),
        ("gk", {"n": 3, "k": 6, "i": 1}, "gk with k=6 has 1164240 edges"),
        ("hni", {"n": 7, "i": 7}, "hni with n=7, i=7 has 1647086 vertices"),
        ("hni", {"n": 2, "i": 70}, "hni with n=2, i=70 has at least 2^75 vertices"),
        (
            "hni",
            {"n": 10**6, "i": 10**6},
            "hni with n=1000000, i=1000000 has at least 1000000 vertices",
        ),
        ("hypercube", {"n": 65536}, "hypercube with n=65536 has at least 2^65536 vertices"),
        ("half", {"n": 70000}, "half with n=70000 has at least 70000 vertices"),
    ],
)
def test_check_size_names_the_family_its_parameters_and_the_count(family, params, message):
    with pytest.raises(SizeLimitError) as exc:
        check_size(family, **params)
    assert str(exc.value).startswith(message + ", more than the limit ")
    assert _REFUSAL.fullmatch(str(exc.value))


@pytest.mark.parametrize("params", [{"n": 0, "i": 5}, {"n": 5, "i": 0}, {"n": -3, "i": 10**6}])
def test_check_size_counts_a_parameter_below_1_as_empty(params):
    # left to the generator, which raises its own GraphError
    check_size("hni", **params)
    with pytest.raises(GraphError):
        fb.point_box_incidence(**params)


def test_check_size_lower_bounds_hold_on_small_parameters():
    # a parameter above the limit is refused as a lower bound on the vertices
    for family, (names, sizes) in FAMILY_SIZES.items():
        for args in itertools.product(range(1, 7), repeat=len(names)):
            assert sizes(*args)[0] >= max(args), (family, args)


def test_library_builders_are_not_capped():
    # the edge limit bounds what gen writes, not what the library builds
    g, _ = fb.g_k(6)
    assert g.edge_count() == FAMILY_SIZES["gk"][1](6)[1] > GEN_MAX_EDGES
