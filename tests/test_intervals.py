import pytest

import funbox as fb
from funbox.campaigns import random_interval_rep
from funbox.graphs import GraphError
from funbox.intervals import manhattan
from funbox.rng import SplitMix64
from oracles import dict_normalize, pairloop_check_sd_lemma, scan_find_low_fun_witness


def test_graph_from_intervals_touching_intersect():
    g = fb.graph_from_intervals(fb.IntervalRep(intervals=((1, 2), (2, 3))))
    assert g.edge_count() == 1


def test_graph_from_intervals_disjoint():
    g = fb.graph_from_intervals(fb.IntervalRep(intervals=((1, 2), (3, 4))))
    assert g.edge_count() == 0


def test_graph_from_intervals_containment():
    g = fb.graph_from_intervals(fb.IntervalRep(intervals=((1, 4), (2, 3), (5, 6))))
    assert sorted(g.edges()) == [(0, 1)]


def test_interval_rep_rejects_reversed():
    with pytest.raises(GraphError):
        fb.IntervalRep(intervals=((3, 1),))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: fb.IntervalRep(intervals=()), "must be nonempty"),
        (lambda: fb.IntervalRep(intervals=((1, 2),), scale_denominator=0), "must be positive"),
        (lambda: fb.PointRep(points=()), "must be nonempty"),
    ],
    ids=["empty-intervals", "scale-0", "empty-points"],
)
def test_reps_reject_empty_input_and_bad_scale(build, message):
    with pytest.raises(GraphError, match=message):
        build()


def test_point_rep_validates_permutation():
    with pytest.raises(GraphError):
        fb.PointRep(points=((1, 2), (2, 3)))
    with pytest.raises(GraphError):
        fb.PointRep(points=((2, 1), (3, 4)))


def test_normalize_touching_pair():
    pts = fb.normalize(fb.IntervalRep(intervals=((1, 2), (2, 3))))
    assert pts.points == ((1, 3), (2, 4))


def test_normalize_nested_pair():
    pts = fb.normalize(fb.IntervalRep(intervals=((1, 4), (2, 3))))
    assert pts.points == ((1, 4), (2, 3))


def test_normalize_preserves_adjacency_with_ties():
    # degenerate point intervals and duplicates keep their intersections
    rep = fb.IntervalRep(intervals=((2, 2), (2, 2), (1, 2), (2, 3), (4, 4)))
    pts = fb.normalize(rep)
    assert fb.equal_labeled(fb.graph_from_points(pts), fb.graph_from_intervals(rep))


def test_normalize_round_trip_500_random_reps():
    rng = SplitMix64(1234)
    for _ in range(500):
        n = 1 + rng.below(50)
        rep = random_interval_rep(n, rng.next_u64(), 40)  # narrow range forces ties
        pts = fb.normalize(rep)
        assert fb.equal_labeled(
            fb.graph_from_points(pts), fb.graph_from_intervals(rep)
        )


def test_normalize_matches_dict_ranks_on_500_seeded_reps():
    """Points equal the two-dict rewrite's, and the sd lemma the pair loop's.

    A coordinate range of at most 40 makes shared endpoints common, so the
    tie order (left endpoint first, then interval id) decides most ranks.
    """
    rng = SplitMix64(1717)
    for _ in range(500):
        n = 1 + rng.below(50)
        rep = random_interval_rep(n, rng.next_u64(), 2 + rng.below(39))
        pts = fb.normalize(rep)
        assert pts.points == dict_normalize(rep).points
        assert fb.check_sd_lemma(pts) == pairloop_check_sd_lemma(pts)


def test_check_sd_lemma_two_vertices():
    pts = fb.PointRep(points=((1, 4), (2, 3)))
    report = fb.check_sd_lemma(pts)
    assert report.ok and report.pairs_checked == 1
    assert manhattan((1, 4), (2, 3)) == 2


def test_check_sd_lemma_200_random_intervals():
    rep = random_interval_rep(200, 99, 2000)
    report = fb.check_sd_lemma(fb.normalize(rep))
    assert report.ok
    assert report.pairs_checked == 200 * 199 // 2


def test_witness_single_interval():
    w = fb.find_low_fun_witness(fb.normalize(fb.IntervalRep(intervals=((1, 2),))))
    assert w.arity == 0 and w.origin == "small-n"


def test_witness_eight_disjoint_intervals():
    rep = fb.IntervalRep(intervals=tuple((10 * i, 10 * i + 1) for i in range(8)))
    w = fb.find_low_fun_witness(fb.normalize(rep))
    assert w.origin == "small-n" and w.arity <= 7


def test_witness_bounds_on_random_reps():
    rng = SplitMix64(777)
    for _ in range(250):
        n = 1 + rng.below(60)
        rep = random_interval_rep(n, rng.next_u64(), 1000)
        pts = fb.normalize(rep)
        w = fb.find_low_fun_witness(pts)
        assert fb.witness_is_valid(fb.graph_from_points(pts), w)
        assert w.arity <= (7 if n <= 8 else 8)
        if w.origin == "stripe-case1":
            assert w.arity <= 7


def test_witness_arity_not_below_exact_functionality():
    rng = SplitMix64(424242)
    for _ in range(60):
        n = 9 + rng.below(17)  # 9..25
        rep = random_interval_rep(n, rng.next_u64(), 400)
        pts = fb.normalize(rep)
        w = fb.find_low_fun_witness(pts)
        k, _ = fb.fun_vertex(fb.graph_from_points(pts), w.target)
        assert w.arity >= k


def test_stripe_case2_appears_and_validates():
    rng = SplitMix64(31415)
    seen = 0
    for _ in range(400):
        n = 9 + rng.below(52)
        rep = random_interval_rep(n, rng.next_u64(), 1000)
        pts = fb.normalize(rep)
        w = fb.find_low_fun_witness(pts)
        if w.origin == "stripe-case2":
            seen += 1
            assert fb.witness_is_valid(fb.graph_from_points(pts), w)
    assert seen > 0


def test_witness_matches_block_scans():
    """Target, args, table and origin equal the old scans' on seeded models.

    Case 2 is rare (about 1 model in 70 over n <= 120), so three models in
    four have n = 9..11, where it is most common.
    """
    rng = SplitMix64(6000)
    origins = {}
    for t in range(4000):
        n = 1 + rng.below(120) if t % 4 == 0 else 9 + rng.below(3)
        pts = fb.normalize(random_interval_rep(n, rng.next_u64(), 20 + rng.below(4981)))
        w = fb.find_low_fun_witness(pts)
        assert w == scan_find_low_fun_witness(pts)
        origins[w.origin] = origins.get(w.origin, 0) + 1
    assert origins["stripe-case2"] >= 50 and len(origins) == 3


def test_interval_graphs_have_fun_graph_at_most_8():
    rng = SplitMix64(2718)
    for _ in range(15):
        n = 2 + rng.below(11)  # 2..12
        rep = random_interval_rep(n, rng.next_u64(), 60)
        g = fb.graph_from_intervals(rep)
        assert fb.fun_graph(g) <= 8


def test_interval_rep_json_round_trip():
    from funbox.intervals import interval_rep_from_json, interval_rep_to_json

    rep = fb.IntervalRep(intervals=((1, 5), (2, 3)), scale_denominator=2)
    assert interval_rep_from_json(interval_rep_to_json(rep)) == rep


@pytest.mark.parametrize(
    "payload",
    [
        [[1, 2]],
        {},
        {"intervals": 3},
        {"intervals": [[1]]},
        {"intervals": [7]},
        {"intervals": [[1, "2"]]},
        {"intervals": [[False, 2]]},
    ],
    ids=[
        "top-level-list",
        "missing-intervals",
        "intervals-not-list",
        "one-element-pair",
        "bare-int",
        "string-coordinate",
        "bool-coordinate",
    ],
)
def test_interval_rep_json_shape_is_checked(payload):
    from funbox.intervals import interval_rep_from_json

    with pytest.raises(GraphError):
        interval_rep_from_json(payload)


def test_interval_rep_json_over_the_file_cap_is_a_size_limit_error():
    from funbox.graphs import MAX_VERTICES, SizeLimitError
    from funbox.intervals import interval_rep_from_json

    # malformed entries: a reader without the cap fails on the first one instead
    payload = {"intervals": [[1]] * (MAX_VERTICES + 1)}
    with pytest.raises(SizeLimitError, match="more than the limit"):
        interval_rep_from_json(payload)
