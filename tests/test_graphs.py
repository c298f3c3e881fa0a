from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox import graphs
from funbox.campaigns import random_graph
from funbox.graphs import GraphError, _columns, _dense, bit_ids, mask_of
from funbox.rng import SplitMix64
from oracles import pairloop_induced_subgraph, walk_induced_subgraph


def path(n):
    return fb.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return fb.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def test_from_edge_list_single_vertex():
    g = fb.from_edge_list(1, [])
    assert g.n == 1 and g.edge_count() == 0


def test_from_edge_list_p3_degrees():
    g = fb.from_edge_list(3, [(0, 1), (1, 2)])
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_from_edge_list_p4():
    g = path(4)
    assert g.edge_count() == 3


def test_from_edge_list_deduplicates():
    g = fb.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("edges", [[(0, 3)], [(1, 1)], [(-1, 0)]])
def test_from_edge_list_rejects_bad_edges(edges):
    with pytest.raises(GraphError):
        fb.from_edge_list(3, edges)


def test_induced_subgraph_identity():
    g = path(4)
    h, mapping = fb.induced_subgraph(g, range(4))
    assert fb.equal_labeled(g, h)
    assert mapping == {0: 0, 1: 1, 2: 2, 3: 3}


def test_induced_subgraph_endpoints_isolated():
    g = path(4)
    h, _ = fb.induced_subgraph(g, [0, 3])
    assert h.n == 2 and h.edge_count() == 0


def test_induced_subgraph_c5_minus_vertex_is_p4():
    c5 = cycle(5)
    for drop in range(5):
        h, _ = fb.induced_subgraph(c5, [v for v in range(5) if v != drop])
        assert h.n == 4 and h.edge_count() == 3
        assert sorted(h.degree(v) for v in range(4)) == [1, 1, 2, 2]


def _same_induced(g, subset):
    """Check ``induced_subgraph`` against both oracles; return whether its
    transpose (the first ``_columns`` call it makes) took the dense path."""
    transposed = []

    def columns(rows, width):
        transposed.append(rows)
        return _columns(rows, width)

    with patch.object(graphs, "_columns", columns):
        h, mapping = fb.induced_subgraph(g, subset)
    rows = transposed[0]
    kept = mask_of(subset, g.n)
    assert not any(row & ~kept for row in rows)  # the transpose sees kept columns only
    for oracle in (walk_induced_subgraph, pairloop_induced_subgraph):
        want, want_mapping = oracle(g, subset)
        assert (h.rows, h.labels, mapping) == (want.rows, want.labels, want_mapping)
        assert list(h.labels or ()) == list(want.labels or ())
        assert list(mapping) == list(want_mapping)
    return _dense(rows, g.n)


@pytest.mark.parametrize("text_max_n", [graphs._TEXT_MAX_N, 1, 7])
def test_induced_subgraph_matches_pair_loop_on_seeded_graphs(text_max_n):
    """300 seeded graphs, n <= 40, with ``_TEXT_MAX_N`` patched small so that
    dense subsets cross several text bands; both transpose paths run."""
    rng = SplitMix64(370)
    seen = set()
    with patch.object(graphs, "_TEXT_MAX_N", text_max_n):
        for i in range(300):
            n = 1 + rng.below(40)
            g = random_graph(n, 1 + rng.below(3), 4, rng.next_u64())
            if i % 2:
                g = fb.Graph(n, g.rows, {v: f"v{v}" for v in range(0, n, 3)})
            keep = rng.below(1 << n) | 1 << rng.below(n)
            seen.add(_same_induced(g, list(bit_ids(keep))[::-1]))
    assert seen == {True, False}


@st.composite
def labelled_graphs_with_subsets(draw):
    """A graph on 1..40 vertices of edge density about 1/2 to 1/16, some
    vertices labelled, and a nonempty list of its ids, highest first."""
    n = draw(st.integers(1, 40))
    cells = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    upper = draw(cells)
    for _ in range(draw(st.integers(0, 3))):  # each AND halves the density
        upper = [r & s for r, s in zip(upper, draw(cells))]
    rows = [0] * n
    for u, row in enumerate(upper):
        for v in bit_ids(row >> (u + 1)):
            rows[u] |= 1 << (u + 1 + v)
            rows[u + 1 + v] |= 1 << u
    labels = draw(st.dictionaries(st.integers(0, n - 1), st.text(max_size=3)))
    keep = draw(st.integers(0, (1 << n) - 1)) | 1 << draw(st.integers(0, n - 1))
    return fb.Graph(n, rows, labels), list(bit_ids(keep))[::-1]


@pytest.mark.parametrize("text_max_n", [graphs._TEXT_MAX_N, 1, 7])
@given(labelled_graphs_with_subsets())
@settings(max_examples=150, deadline=None)
@example(  # K_40 on its odd ids: dense rows
    (
        fb.Graph(40, [((1 << 40) - 1) ^ (1 << u) for u in range(40)], {0: "a", 39: "z"}),
        list(range(39, -1, -2)),
    )
)
def test_induced_subgraph_matches_walk_and_pair_loop(text_max_n, case):
    with patch.object(graphs, "_TEXT_MAX_N", text_max_n):
        _same_induced(*case)


def test_induced_subgraph_matches_pair_loop_on_h44():
    g, _ = fb.point_box_incidence(4, 4)
    rng = SplitMix64(371)
    for subset in (range(g.n), range(0, g.n, 2), [rng.below(g.n) for _ in range(200)]):
        _same_induced(g, subset)
    for bad in ([0, g.n], [-1, 3]):
        messages = []
        for build in (fb.induced_subgraph, pairloop_induced_subgraph):
            with pytest.raises(GraphError) as err:
                build(g, bad)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_induced_subgraph_rejects_empty():
    with pytest.raises(GraphError):
        fb.induced_subgraph(path(3), [])


def test_equal_labeled():
    assert fb.equal_labeled(path(4), path(4))
    assert not fb.equal_labeled(path(4), cycle(4))


def test_json_round_trip():
    g = fb.from_edge_list(4, [(0, 1), (2, 3)], labels={0: "A:1", 3: "C:2"})
    back = fb.graph_from_json(fb.graph_to_json(g))
    assert fb.equal_labeled(g, back)
    assert back.labels == g.labels


def test_label_of_a_vertex():
    g = fb.from_edge_list(4, [(0, 1), (2, 3)], labels={0: "A:1", 3: "C:2"})
    assert g.label(3) == "C:2"
    assert g.label(1) is None  # no label, in a labelled graph
    assert path(4).label(0) is None  # a graph without labels


def test_json_edgeless_graph_at_the_vertex_limit_loads():
    g = fb.graph_from_json({"n": 1 << 16, "edges": []})
    assert g.n == 1 << 16 and g.edge_count() == 0


def test_json_rejects_duplicate_edges():
    with pytest.raises(GraphError):
        fb.graph_from_json({"n": 3, "edges": [[0, 1], [1, 0]]})


@pytest.mark.parametrize(
    "data",
    [
        [[0, 1]],
        {"edges": []},
        {"n": 2},
        {"n": True, "edges": []},
        {"n": 2.0, "edges": []},
        {"n": 2, "edges": [["0", "1"]]},
        {"n": 2, "edges": [[0, 1.0]]},
        {"n": 2, "edges": [[0, True]]},
        {"n": 2, "edges": [[0, 1, 1]]},
        {"n": 2, "edges": [5]},
        {"n": 2, "edges": [[0, 2]]},
        {"n": 2, "edges": [[-1, 0]]},
        {"n": 2, "edges": [None]},
        {"n": 2, "edges": {"0": 1}},
        {"n": 2, "edges": [], "labels": ["A:1"]},
        {"n": 2, "edges": [], "labels": []},
        {"n": 2, "edges": [], "labels": 0},
        {"n": 2, "edges": [], "labels": ""},
    ],
)
def test_json_rejects_malformed_input(data):
    with pytest.raises(GraphError):
        fb.graph_from_json(data)


@pytest.mark.parametrize(
    "edges, message",
    [
        ([[1, 1], [0, 5]], "self-loop at vertex 1"),
        ([[0, 5], [1, 1]], r"edge \(0,5\) out of range"),
        ([[0, 1], [1, 0], [2, 2]], r"duplicate edge \(1,0\)"),
    ],
)
def test_json_names_the_first_bad_edge(edges, message):
    with pytest.raises(GraphError, match=message):
        fb.graph_from_json({"n": 3, "edges": edges})


@pytest.mark.parametrize(
    "labels, message",
    [
        ({"0": 5}, "'labels' entry '0' must be a string, got 5"),
        ({"0": "A:1", "1": [1, 2]}, "'labels' entry '1' must be a string, got [1, 2]"),
        ({"a": "A:1"}, "'labels' key 'a' is not a vertex id"),
        ({"01": "A:1"}, "'labels' key '01' is not a vertex id"),
        ({"-1": "A:1"}, "'labels' key '-1' is not a vertex id"),
        ({" 1": "A:1"}, "'labels' key ' 1' is not a vertex id"),
        ({"1_0": "A:1"}, "'labels' key '1_0' is not a vertex id"),
        ({0: "A:1"}, "'labels' key 0 is not a vertex id"),
        ({"2": "A:1"}, "label for unknown id 2"),
        ({"1" * 5000: "A:1"}, "is not a vertex id"),
    ],
)
def test_json_labels_must_be_strings_keyed_by_ids(labels, message):
    with pytest.raises(GraphError) as err:
        fb.graph_from_json({"n": 2, "edges": [[0, 1]], "labels": labels})
    assert message in str(err.value)


@pytest.mark.parametrize(
    "n,rows,message",
    [(-1, [], "must be nonnegative"), (2, [0], "expected 2 adjacency rows, got 1")],
)
def test_graph_rejects_bad_shape(n, rows, message):
    with pytest.raises(GraphError, match=message):
        fb.Graph(n, rows)


def test_graph_rejects_asymmetric_rows():
    with pytest.raises(GraphError):
        fb.Graph(2, [0b10, 0b00])


def test_graph_rejects_lower_asymmetric_rows():
    with pytest.raises(GraphError, match="asymmetric adjacency between 0 and 1"):
        fb.Graph(2, [0b00, 0b01])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return fb.from_edge_list(n, picks)


@given(small_graphs())
@settings(max_examples=60)
def test_rows_symmetric_irreflexive_and_degree(g):
    for u in range(g.n):
        assert not g.rows[u] >> u & 1
        assert g.degree(u) == len(g.neighbors(u))
        for v in bit_ids(g.rows[u]):
            assert g.rows[v] >> u & 1


@given(small_graphs(), st.data())
@settings(max_examples=60)
def test_induced_subgraph_composes(g, data):
    outer = data.draw(
        st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n)
    )
    inner = data.draw(st.sets(st.sampled_from(sorted(outer)), min_size=1))
    h1, map1 = fb.induced_subgraph(g, outer)
    h2, _ = fb.induced_subgraph(h1, [map1[v] for v in inner])
    direct, _ = fb.induced_subgraph(g, inner)
    assert fb.equal_labeled(h2, direct)
