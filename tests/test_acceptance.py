"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings. Every tolerance and instance count is pinned here.
"""

import time

import funbox as fb
from funbox.campaigns import random_graph, random_interval_rep, random_permutation
from funbox.rng import SplitMix64


def _report(num: int, label: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num} ({label}): {elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({label}) failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_sd_lemma_500_reps():
    start = time.perf_counter()
    rng = SplitMix64(101)
    violations = 0
    for _ in range(500):
        n = 1 + rng.below(60)
        pts = fb.normalize(random_interval_rep(n, rng.next_u64(), 1000))
        if not fb.check_sd_lemma(pts).ok:
            violations += 1
    _report(1, "pairwise sd <= Manhattan - 2", violations == 0,
            time.perf_counter() - start, 10.0)


def test_criterion_2_witness_bounds_500_reps():
    start = time.perf_counter()
    rng = SplitMix64(202)
    ok = True
    for _ in range(500):
        n = 9 + rng.below(52)  # 9..60
        pts = fb.normalize(random_interval_rep(n, rng.next_u64(), 1000))
        w = fb.find_low_fun_witness(pts)
        ok &= w.arity <= 8 and fb.witness_is_valid(fb.graph_from_points(pts), w)
    for _ in range(80):
        n = 1 + rng.below(8)  # 1..8
        pts = fb.normalize(random_interval_rep(n, rng.next_u64(), 1000))
        w = fb.find_low_fun_witness(pts)
        ok &= w.arity <= 7 and fb.witness_is_valid(fb.graph_from_points(pts), w)
    _report(2, "witnesses <= 8 args (<= 7 for n <= 8)", ok,
            time.perf_counter() - start, 30.0)


def test_criterion_3_interval_fun_graph_at_most_8():
    start = time.perf_counter()
    rng = SplitMix64(303)
    ok = True
    for _ in range(100):
        n = 1 + rng.below(12)
        g = fb.graph_from_intervals(random_interval_rep(n, rng.next_u64(), 100))
        ok &= fb.fun_graph(g) <= 8
    _report(3, "interval fun_graph <= 8, full sweep", ok,
            time.perf_counter() - start, 600.0)


def test_criterion_3_interval_fun_graph_at_most_8_at_n24():
    # a k-set has fun <= (k - 1) // 2, so the check above (n <= 12) cannot
    # fail, nor can any at n <= 18; at n = 24, fun could reach 11
    start = time.perf_counter()
    rng = SplitMix64(304)
    ok = True
    for _ in range(20):
        g = fb.graph_from_intervals(random_interval_rep(24, rng.next_u64(), 100))
        fun = fb.fun_graph(g, max_n=24)
        ok &= fun <= 8 and fun <= fb.sd_graph(g, max_n=24) + 1
    _report(3, "interval fun_graph <= 8 and <= sd_graph + 1 at n = 24", ok,
            time.perf_counter() - start, 60.0)


def test_criterion_4_gk_min_sd():
    start = time.perf_counter()
    ok = True
    expected_sizes = {2: 32, 3: 135, 4: 384}
    for k in (2, 3, 4):
        g, meta = fb.g_k(k)
        ok &= g.n == expected_sizes[k]
        worst = None
        for u in range(g.n):
            ru = g.rows[u]
            bu = 1 << u
            for v in range(u + 1, g.n):
                d = ((ru ^ g.rows[v]) & ~bu & ~(1 << v)).bit_count()
                if worst is None or d < worst:
                    worst = d
        ok &= worst >= k
        if k <= 3:
            a_mask = sum(1 << v for v in meta.parts["A"])
            c_mask = sum(1 << v for v in meta.parts["C"])
            b_ids = meta.parts["B"]
            for i, u in enumerate(b_ids):
                du = meta.vertex_data[u]
                for v in b_ids[i + 1:]:
                    dv = meta.vertex_data[v]
                    diff = g.rows[u] ^ g.rows[v]
                    ok &= (diff & a_mask).bit_count() == abs(du["bx"] - dv["bx"])
                    ok &= (diff & c_mask).bit_count() == abs(du["by"] - dv["by"])
    _report(4, "G_k min pairwise sd >= k, coordinate counts exact", ok,
            time.perf_counter() - start, 120.0)


def test_criterion_5_gk_abc_embedding():
    start = time.perf_counter()
    ok = True
    for k in (2, 3):
        g, meta = fb.g_k(k)
        big, bmeta, embed = fb.extend_gk_to_abc(g, meta)
        report = fb.check_abc_partition(
            big, bmeta.parts["A"], bmeta.parts["B"], bmeta.parts["C"]
        )
        ok &= report.n == k ** 4
        sub, _ = fb.induced_subgraph(big, sorted(embed.values()))
        ok &= fb.equal_labeled(sub, g)
    _report(5, "extend_gk_to_abc valid and re-induces G_k", ok,
            time.perf_counter() - start, 30.0)


def test_criterion_6_point_box_family():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        for i in range(1, n + 1):
            g, meta = fb.point_box_incidence(n, i)
            p_ids, box_ids = meta.parts["P"], meta.parts["Box"]
            ok &= len(p_ids) == n ** i
            ok &= len(box_ids) == i * n ** (i - 1)
            ok &= all(g.degree(v) == n for v in box_ids)
            ok &= all(g.degree(v) == i for v in p_ids)
            scan = fb.structure_scan(g, 2)
            ok &= scan.k2p_free and scan.triangle_free
            pts, bs, report = fb.realize_pointbox_plane(n, i)
            ok &= report.equal
            bs3 = fb.embed_pointbox_r3(pts, bs)
            ok &= fb.equal_labeled(fb.graph_from_boxes(bs3), g)
    _report(6, "H^n_i counts/degrees/freeness + plane + R^3", ok,
            time.perf_counter() - start, 60.0)


def test_criterion_7_refutation_never_fails():
    start = time.perf_counter()
    ok = True
    targets = [(fb.point_box_incidence(4, 4)[0], 1, 2), (fb.hypercube(4)[0], 1, 3)]
    rng = SplitMix64(707)
    for g, k, p in targets:
        for _ in range(1000):
            x = rng.below(g.n)
            s = set()
            while len(s) < k:
                v = rng.below(g.n)
                if v != x:
                    s.add(v)
            pair = fb.refute_function(g, x, s, k, p)
            fn, _ = fb.is_function_of(g, x, s)
            ok &= not fn
            ok &= g.has_edge(x, pair.u) and not g.has_edge(x, pair.w)
            ok &= all(
                g.has_edge(pair.u, t) == g.has_edge(pair.w, t) for t in s
            )
    _report(7, "refutation pairs on H^4_4 and Q4, 1000 draws each", ok,
            time.perf_counter() - start, 60.0)


def test_criterion_8_hypercube_claims():
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        g, _ = fb.hypercube(n)
        ok &= fb.structure_scan(g, 3).k2p_free
    q3, _ = fb.hypercube(3)
    for y in range(8):
        k, w = fb.fun_vertex(q3, y)
        ok &= k == 1
        ok &= w.args == (y ^ 7,)  # the antipodal vertex
        ok &= (w.predict(0), w.predict(1)) == (1, 0)  # negation table
    _report(8, "Q_n K_{2,3}-free (n <= 6), Q3 anti-twin witness", ok,
            time.perf_counter() - start, 60.0)


def test_criterion_9_abc_realizations_100_seeds():
    start = time.perf_counter()
    rng = SplitMix64(909)
    ok = True
    for _ in range(100):
        n = 1 + rng.below(50)
        g, meta = fb.abc_graph(n, random_permutation(n, rng.next_u64()))
        a, b, c = meta.parts["A"], meta.parts["B"], meta.parts["C"]
        _, sq = fb.realize_abc_unit_squares(g, a, b, c)
        ok &= sq.equal and bool(sq.unit)
        rep, iv = fb.realize_abc_intervals(g, a, b, c)
        ok &= iv.equal
        w = fb.find_low_fun_witness(fb.normalize(rep))
        ok &= w.arity <= 8 and fb.witness_is_valid(fb.graph_from_intervals(rep), w)
    _report(9, "ABC unit squares + intervals + chained witness", ok,
            time.perf_counter() - start, 120.0)


def test_criterion_10_parameter_laws_1000_graphs():
    start = time.perf_counter()
    rng = SplitMix64(1010)
    ok = True
    for _ in range(1000):
        n = 2 + rng.below(11)  # 2..12
        g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
        funs = {}
        for y in range(n):
            k, _ = fb.fun_vertex(g, y)
            funs[y] = k
            ok &= k <= g.degree(y) and k <= n - 1 - g.degree(y)
        full = g.full_mask
        for x in range(n):
            for y in range(x + 1, n):
                d = fb.sd_pair(g, x, y)
                ok &= funs[x] <= d + 1 and funs[y] <= d + 1
                keep = full & ~(1 << x) & ~(1 << y)
                rx, ry = g.rows[x] & keep, g.rows[y] & keep
                if rx == ry:
                    ok &= d == 0
                if rx ^ ry == keep:
                    ok &= d == n - 2
        probe = rng.below(n)
        nk, _ = fb.fun_vertex_naive(g, probe)
        ok &= nk == funs[probe]
        ok &= (fb.fun_graph(g) == 0) == fb.is_threshold(g)
    _report(10, "degree/sd bounds, naive kernel match, threshold law", ok,
            time.perf_counter() - start, 600.0)
