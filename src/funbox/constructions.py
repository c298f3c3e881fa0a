"""Generators for the extremal graph families, with checker-ready labels.

Every generator returns a Graph whose per-vertex label strings encode the
family metadata, plus a ConstructionLabels object holding the same data in
structured form (part membership, order indices, grid coordinates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .graphs import Graph, GraphError, SizeLimitError, from_edge_list

HYPERCUBE_MAX_DIM = 16
HNI_MAX_VERTICES = 1 << HYPERCUBE_MAX_DIM


@dataclass(frozen=True)
class ConstructionLabels:
    """Structured vertex metadata emitted alongside a generated graph."""

    family: str
    parts: dict[str, tuple[int, ...]]
    vertex_data: dict[int, dict] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def abc_parts(g: Graph) -> tuple[list[int], list[int], list[int]]:
    """Recover the A/B/C part lists from a labeled graph (e.g. loaded JSON)."""
    if not g.labels or len(g.labels) != g.n:
        raise GraphError("graph carries no per-vertex part labels")
    parts: dict[str, list[int]] = {"A": [], "B": [], "C": []}
    for v in range(g.n):
        head = g.labels[v].split(":", 1)[0]
        if head not in parts:
            raise GraphError(f"vertex {v} label {g.labels[v]!r} is not A/B/C")
        parts[head].append(v)
    return parts["A"], parts["B"], parts["C"]


def half_graph(n: int) -> tuple[Graph, ConstructionLabels]:
    """Bipartite graph on parts X, Y of size n with x_i ~ y_j iff i < j."""
    if n < 1:
        raise GraphError("half graph needs n >= 1")
    edges = [(i - 1, n + j - 1) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    labels = {i - 1: f"X:{i}" for i in range(1, n + 1)}
    labels.update({n + j - 1: f"Y:{j}" for j in range(1, n + 1)})
    g = from_edge_list(2 * n, edges, labels)
    vertex_data = {i - 1: {"part": "X", "index": i} for i in range(1, n + 1)}
    vertex_data.update({n + j - 1: {"part": "Y", "index": j} for j in range(1, n + 1)})
    meta = ConstructionLabels(
        family="half",
        parts={"X": tuple(range(n)), "Y": tuple(range(n, 2 * n))},
        vertex_data=vertex_data,
        params={"n": n},
    )
    return g, meta


def _clique_edges(ids: Sequence[int]) -> list[tuple[int, int]]:
    return [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]


def abc_graph(n: int, perm: Sequence[int] | None = None) -> tuple[Graph, ConstructionLabels]:
    """Three n-cliques A, B, C; A-B and B-C are half graphs on independent B-orders.

    ``perm`` (1-based, default identity) sets the second B-order:
    b'_i = b_{perm[i-1]}, and b'_i ~ c_j iff i < j.
    """
    if n < 1:
        raise GraphError("abc graph needs n >= 1")
    if perm is None:
        perm = tuple(range(1, n + 1))
    else:
        perm = tuple(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise GraphError(f"perm must be a permutation of 1..{n}")
    a_ids = tuple(range(n))
    b_ids = tuple(range(n, 2 * n))
    c_ids = tuple(range(2 * n, 3 * n))
    clique = (1 << n) - 1
    rows = [0] * (3 * n)
    b_before = 0  # B bits of b'_1 .. b'_{i-1}
    for i in range(1, n + 1):
        after = clique >> i  # n - i bits: the positions after i
        k = perm[i - 1]  # b'_i = b_k
        # a_i: its clique, and b_j for j > i
        rows[i - 1] = (clique ^ 1 << i - 1) | after << n + i
        # b_k: a_j for j < k, its clique, and c_j for j > i
        rows[n + k - 1] = (1 << k - 1) - 1 | (clique ^ 1 << k - 1) << n | after << 2 * n + i
        # c_i: b'_j for j < i, and its clique
        rows[2 * n + i - 1] = b_before << n | (clique ^ 1 << i - 1) << 2 * n
        b_before |= 1 << k - 1
    labels = {}
    vertex_data = {}
    inv = {perm[i - 1]: i for i in range(1, n + 1)}  # b-index -> b'-position
    for i in range(1, n + 1):
        labels[a_ids[i - 1]] = f"A:{i}"
        labels[b_ids[i - 1]] = f"B:{i}"
        labels[c_ids[i - 1]] = f"C:{i}"
        vertex_data[a_ids[i - 1]] = {"part": "A", "index": i}
        vertex_data[b_ids[i - 1]] = {"part": "B", "index": i, "c_side_index": inv[i]}
        vertex_data[c_ids[i - 1]] = {"part": "C", "index": i}
    g = Graph(3 * n, rows, labels)
    meta = ConstructionLabels(
        family="abc",
        parts={
            "A": a_ids,
            "B": b_ids,
            "C": c_ids,
            "B_by_c": tuple(b_ids[perm[i - 1] - 1] for i in range(1, n + 1)),
        },
        vertex_data=vertex_data,
        params={"n": n, "perm": perm},
    )
    return g, meta


def g_k(k: int) -> tuple[Graph, ConstructionLabels]:
    """High-symmetric-difference clique triple: |A| = |C| = k^3, |B| = k^4.

    B vertices carry grid coordinates built from the seed block
    {(pk-q, qk+p) : 1 <= p <= k, 0 <= q <= k-1} and its k^2 translates by
    ((i-1)k^2, (j-1)k^2). Cross edges: a_i ~ b iff i < b_x; b ~ c_j iff
    b_y < j; no A-C edges. Every pairwise symmetric difference is >= k.
    """
    if k < 2:
        raise GraphError("g_k needs k >= 2")
    t = k ** 3
    b_count = k ** 4
    a_ids = tuple(range(t))
    b_ids = tuple(range(t, t + b_count))
    c_ids = tuple(range(t + b_count, t + b_count + t))
    coords = []
    blocks = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for p in range(1, k + 1):
                for q in range(k):
                    bx = p * k - q + (i - 1) * k * k
                    by = q * k + p + (j - 1) * k * k
                    coords.append((bx, by))
                    blocks.append((i, j, p, q))
    edges = _clique_edges(a_ids) + _clique_edges(b_ids) + _clique_edges(c_ids)
    for bi, (bx, by) in enumerate(coords):
        b = b_ids[bi]
        for i in range(1, bx):
            edges.append((a_ids[i - 1], b))
        for j in range(by + 1, t + 1):
            edges.append((b, c_ids[j - 1]))
    labels = {}
    vertex_data = {}
    for i in range(1, t + 1):
        labels[a_ids[i - 1]] = f"A:{i}"
        labels[c_ids[i - 1]] = f"C:{i}"
        vertex_data[a_ids[i - 1]] = {"part": "A", "index": i}
        vertex_data[c_ids[i - 1]] = {"part": "C", "index": i}
    for bi, (bx, by) in enumerate(coords):
        b = b_ids[bi]
        labels[b] = f"B:{bx},{by}"
        i, j, p, q = blocks[bi]
        vertex_data[b] = {"part": "B", "bx": bx, "by": by, "block": (i, j), "pq": (p, q)}
    g = from_edge_list(t + b_count + t, edges, labels)
    meta = ConstructionLabels(
        family="gk",
        parts={"A": a_ids, "B": b_ids, "C": c_ids},
        vertex_data=vertex_data,
        params={"k": k, "t": t},
    )
    return g, meta


def extend_gk_to_abc(
    g: Graph, meta: ConstructionLabels
) -> tuple[Graph, ConstructionLabels, dict[int, int]]:
    """Grow the A and C cliques of a g_k output to size k^4, giving an ABC graph.

    The C side is extended along the B-order grouped by b_y (k-1 new
    vertices between consecutive originals, neighborhoods nested and growing
    one B-vertex per step); the A side mirrors this along the b_x order.
    The original graph re-appears as the induced subgraph on the embedded ids.
    """
    if meta.family != "gk":
        raise GraphError("extend_gk_to_abc needs g_k labels")
    k = meta.params["k"]
    t = meta.params["t"]
    big = k ** 4
    old_a = meta.parts["A"]
    old_b = meta.parts["B"]
    old_c = meta.parts["C"]
    by_x = sorted(old_b, key=lambda v: (meta.vertex_data[v]["bx"], v))
    by_y = sorted(old_b, key=lambda v: (meta.vertex_data[v]["by"], v))

    # new id layout: A' block 0..big-1 (in half-graph order), then B, then C'
    new_a = tuple(range(big))
    new_b = tuple(range(big, 2 * big))
    new_c = tuple(range(2 * big, 3 * big))
    b_new_id = {old: new_b[idx] for idx, old in enumerate(old_b)}

    embed: dict[int, int] = dict(b_new_id)
    # original a_i occupies A'-position k*i; original c_j occupies C'-position k*(j-1)+1
    for i in range(1, t + 1):
        embed[old_a[i - 1]] = new_a[k * i - 1]
        embed[old_c[i - 1]] = new_c[k * (i - 1)]

    edges = _clique_edges(new_a) + _clique_edges(new_b) + _clique_edges(new_c)
    x_pos = {b_new_id[old]: idx + 1 for idx, old in enumerate(by_x)}
    y_pos = {b_new_id[old]: idx + 1 for idx, old in enumerate(by_y)}
    for b in new_b:
        for r in range(1, x_pos[b]):
            edges.append((new_a[r - 1], b))  # a'_r ~ b iff r < position in bx-order
        for r in range(y_pos[b] + 1, big + 1):
            edges.append((b, new_c[r - 1]))  # b ~ c'_r iff position in by-order < r
    labels = {}
    vertex_data = {}
    for r in range(1, big + 1):
        labels[new_a[r - 1]] = f"A:{r}"
        labels[new_c[r - 1]] = f"C:{r}"
        vertex_data[new_a[r - 1]] = {"part": "A", "index": r}
        vertex_data[new_c[r - 1]] = {"part": "C", "index": r}
    for old in old_b:
        b = b_new_id[old]
        labels[b] = f"B:{x_pos[b]}"
        vertex_data[b] = {"part": "B", "index": x_pos[b], "c_side_index": y_pos[b]}
    out = from_edge_list(3 * big, edges, labels)
    meta_out = ConstructionLabels(
        family="abc",
        parts={
            "A": new_a,
            "B": tuple(b_new_id[old] for old in by_x),
            "C": new_c,
            "B_by_c": tuple(b_new_id[old] for old in by_y),
        },
        vertex_data=vertex_data,
        params={"n": big, "from_gk": k},
    )
    return out, meta_out, embed


def point_box_incidence(n: int, i: int) -> tuple[Graph, ConstructionLabels]:
    """Recursive bipartite incidence family: |P| = n^i, |Box| = i * n^(i-1).

    Level 1 is the star with one box over n points; level j takes n copies
    of level j-1 and adds one box per level-(j-1) point, matched to that
    point's n copies. Box degree is n, point degree is i, and the graph is
    K_{2,2}-free and triangle-free.
    """
    if n < 1:
        raise GraphError("point_box_incidence needs n >= 1")
    if not 1 <= i <= n:
        raise GraphError(f"level must satisfy 1 <= i <= n, got {i}")
    # n^i >= 2^i once n >= 2 (n = 1 forces i = 1), so a large i alone settles it
    # before any huge power is formed
    if (
        i >= HNI_MAX_VERTICES.bit_length()
        or n**i + i * n ** (i - 1) > HNI_MAX_VERTICES
    ):
        raise SizeLimitError(
            f"H^n_i with n={n}, i={i} has n^i + i*n^(i-1) vertices, "
            f"more than the limit {HNI_MAX_VERTICES}"
        )
    p_count, b_count = n, 1
    edges = [(pt, 0) for pt in range(n)]  # (point, box) in level-local ids
    for _ in range(2, i + 1):
        new_edges = []
        for c in range(n):
            for pt, bx in edges:
                new_edges.append((c * p_count + pt, c * b_count + bx))
        for pi in range(p_count):
            for c in range(n):
                new_edges.append((c * p_count + pi, n * b_count + pi))
        edges = new_edges
        p_count, b_count = n * p_count, n * b_count + p_count
    labels = {pt: f"P:{pt}" for pt in range(p_count)}
    labels.update({p_count + bx: f"Box:{bx}" for bx in range(b_count)})
    g = from_edge_list(
        p_count + b_count, [(pt, p_count + bx) for pt, bx in edges], labels
    )
    meta = ConstructionLabels(
        family="hni",
        parts={
            "P": tuple(range(p_count)),
            "Box": tuple(range(p_count, p_count + b_count)),
        },
        vertex_data={v: {"side": "P" if v < p_count else "Box"} for v in range(g.n)},
        params={"n": n, "i": i},
    )
    return g, meta


def hypercube(n: int) -> tuple[Graph, ConstructionLabels]:
    """n-dimensional hypercube: bitstring vertices, edges at Hamming distance 1."""
    if not 1 <= n <= HYPERCUBE_MAX_DIM:
        raise GraphError(f"hypercube dimension must be 1..{HYPERCUBE_MAX_DIM}")
    size = 1 << n
    rows = [0] * size
    for v in range(size):
        for b in range(n):
            rows[v] |= 1 << (v ^ (1 << b))
    labels = {v: format(v, f"0{n}b") for v in range(size)}
    g = Graph(size, rows, labels)
    meta = ConstructionLabels(
        family="hypercube",
        parts={"V": tuple(range(size))},
        vertex_data={v: {"bits": labels[v]} for v in range(size)},
        params={"n": n},
    )
    return g, meta
