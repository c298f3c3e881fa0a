"""The one bit-matrix transpose and the builders that now build rows.

``graphs._columns`` walks the set bits of sparse rows and slices a banded
binary text for dense ones; both paths are checked against the definition,
with ``_TEXT_MAX_N`` patched small so that dense rows span several bands.
``_arg_system`` takes its covers from it, checked here on the sparse systems
of H^n_i. ``half_graph`` and ``point_box_incidence`` build their rows as
masks and are checked against the edge-list builds they replaced, which
live on in ``oracles``.
"""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import funbox as fb
from funbox import graphs
from funbox.graphs import _columns, _dense, bit_ids
from funbox.parameters import _arg_system
from funbox.rng import SplitMix64
from oracles import edgelist_half_graph, edgelist_point_box_incidence


@st.composite
def bit_matrices(draw):
    """Up to 40 rows of width 0..40, of density 1/2, 1/4, 1/8 or 1/16.

    The crossover sits at (width + 64) / 32 set bits per row, so for widths
    from about 5 up the densities fall on both sides of it; rows of width
    2 or less are always walked.
    """
    width = draw(st.integers(0, 40))
    m = draw(st.integers(0, 40))
    cells = st.lists(st.integers(0, (1 << width) - 1), min_size=m, max_size=m)
    rows = draw(cells)
    for _ in range(draw(st.integers(0, 3))):  # each AND halves the density
        rows = [r & s for r, s in zip(rows, draw(cells))]
    return width, rows


def _check_columns(width, rows):
    cols = _columns(rows, width)
    assert len(cols) == width
    for e, col in enumerate(cols):
        assert col == sum(1 << i for i, row in enumerate(rows) if row >> e & 1)


@pytest.mark.parametrize("text_max_n", [graphs._TEXT_MAX_N, 1, 2, 7])
@given(bit_matrices())
@settings(max_examples=200, deadline=None)
@example((0, [0, 0]))
@example((40, [(1 << 40) - 1] * 40))
@example((40, [1 << i for i in range(40)]))
def test_columns_match_definition(text_max_n, case):
    with patch.object(graphs, "_TEXT_MAX_N", text_max_n):
        _check_columns(*case)


@pytest.mark.parametrize("text_max_n", [graphs._TEXT_MAX_N, 1, 2, 7])
def test_columns_take_both_paths(text_max_n):
    """Seeded matrices of densities 1/2 to 1/16, against the definition."""
    rng = SplitMix64(90)
    seen = set()
    for width in range(41):
        for ands in range(1, 5):
            rows = []
            for _ in range(1 + rng.below(40)):
                row = (1 << width) - 1
                for _ in range(ands):
                    row &= rng.next_u64()
                rows.append(row)
            seen.add(_dense(rows, width))
            with patch.object(graphs, "_TEXT_MAX_N", text_max_n):
                _check_columns(width, rows)
    assert seen == {True, False}


@pytest.mark.parametrize("n, i", [(4, 4), (5, 4)])
def test_arg_system_covers_on_sparse_systems(n, i):
    """Covers of sampled point and box vertices of H^n_i, via the bit walk."""
    g, meta = fb.point_box_incidence(n, i)
    rng = SplitMix64(100 * n + i)
    for side in ("P", "Box"):
        ids = meta.parts[side]
        for _ in range(3):
            y = ids[rng.below(len(ids))]
            need, hitters = _arg_system(g.rows, g.full_mask, y)
            reqs, cover = hitters.reqs, hitters.cover
            assert need == (1 << len(reqs)) - 1 and len(cover) == g.n
            assert not _dense(reqs, g.n)
            # each bit of each requirement sits in its column, and the
            # columns hold no other bit
            assert all(cover[e] >> t & 1 for t, r in enumerate(reqs) for e in bit_ids(r))
            assert sum(map(int.bit_count, cover)) == sum(map(int.bit_count, reqs))


def test_point_box_incidence_matches_edge_list_build():
    for n in range(1, 6):
        for i in range(1, n + 1):
            g, meta = fb.point_box_incidence(n, i)
            ref, ref_meta = edgelist_point_box_incidence(n, i)
            assert g.rows == ref.rows, (n, i)
            assert list(g.labels.items()) == list(ref.labels.items())
            assert meta == ref_meta


def test_half_graph_matches_edge_list_build():
    for n in range(1, 41):
        g, meta = fb.half_graph(n)
        ref, ref_meta = edgelist_half_graph(n)
        assert g.rows == ref.rows, n
        assert list(g.labels.items()) == list(ref.labels.items())
        assert meta == ref_meta
