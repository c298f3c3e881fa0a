"""Generators for the extremal graph families, with checker-ready labels.

Every generator returns a Graph whose per-vertex label strings encode the
family metadata, plus a ConstructionLabels object holding the same data in
structured form (part membership, order indices, grid coordinates).

Every generator builds adjacency rows as masks; none goes through an edge
list. The ABC-type families (three cliques joined by two half graphs:
abc_graph, g_k, extend_gk_to_abc) share one row kernel, _triple_rows, and
point_box_incidence builds its box rows level by level and takes the point
rows as their columns. ``check_size`` bounds every family's vertices and
edges from the closed forms in ``FAMILY_SIZES`` before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .graphs import MAX_VERTICES, Graph, GraphError, SizeLimitError, _columns

# Writing a `gen` file peaks at about 140 bytes per edge (144 MB for abc at
# n=648), mostly graph_to_json's list of [u, v] lists.
GEN_MAX_EDGES = 1 << 20


def _pairs(m: int) -> int:
    return m * (m - 1) // 2


# family -> (its parameters, its (vertices, edges) in closed form in them);
# n intervals meet in at most C(n,2) pairs, so that bounds an interval model
FAMILY_SIZES = {
    "half": (("n",), lambda n: (2 * n, _pairs(n))),
    "abc": (("n",), lambda n: (3 * n, 5 * _pairs(n))),
    "gk": (("k",), lambda k: (2 * k**3 + k**4, (2 * k + 2) * _pairs(k**3) + _pairs(k**4))),
    "gk-abc": (("k",), lambda k: (3 * k**4, 5 * _pairs(k**4))),
    "hni": (("n", "i"), lambda n, i: (n**i + i * n ** (i - 1), i * n**i)),
    "hypercube": (("n",), lambda n: (1 << n, n << n - 1)),
    "interval model": (("n",), lambda n: (n, _pairs(n))),
}


def check_size(family: str, n: int = 0, k: int = 0, i: int = 0) -> None:
    """Refuse a ``family`` graph (a key of FAMILY_SIZES) with more than
    MAX_VERTICES vertices or more than GEN_MAX_EDGES edges.

    The counts come from the closed form, before anything is built. A
    parameter below 1 counts as an empty graph, left to the generator's own
    checks. Every family has at least as many vertices as each of its
    parameters, so one above MAX_VERTICES is refused, as a lower bound on
    the vertices, before any closed form is evaluated; so is a count too
    wide to print, as its top power of two.
    """
    names, sizes = FAMILY_SIZES[family]
    args = [{"n": n, "k": k, "i": i}[name] for name in names]
    if min(args) < 1:
        return
    top = max(args)
    counts, bound = (sizes(*args), "") if top <= MAX_VERTICES else ((top, 0), "at least ")
    for count, what, limit in zip(counts, ("vertices", "edges"), (MAX_VERTICES, GEN_MAX_EDGES)):
        if count > limit:
            if count >> 64:  # too wide to print in full: give its top power of two
                count, bound = f"2^{count.bit_length() - 1}", "at least "
            params = ", ".join(f"{name}={arg}" for name, arg in zip(names, args))
            raise SizeLimitError(
                f"{family} with {params} has {bound}{count} {what}, more than the limit {limit}"
            )


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
    ys = (1 << n) - 1
    # x_i (id i-1) sees y_{i+1}..y_n; y_j (id n+j-1) sees x_1..x_{j-1}
    rows = [ys >> i << i << n for i in range(1, n + 1)] + [(1 << j) - 1 for j in range(n)]
    labels = {i - 1: f"X:{i}" for i in range(1, n + 1)}
    labels.update({n + j - 1: f"Y:{j}" for j in range(1, n + 1)})
    g = Graph(2 * n, rows, labels)
    vertex_data = {i - 1: {"part": "X", "index": i} for i in range(1, n + 1)}
    vertex_data.update({n + j - 1: {"part": "Y", "index": j} for j in range(1, n + 1)})
    meta = ConstructionLabels(
        family="half",
        parts={"X": tuple(range(n)), "Y": tuple(range(n, 2 * n))},
        vertex_data=vertex_data,
        params={"n": n},
    )
    return g, meta


def _triple_rows(na: int, nc: int, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Rows of cliques A (na), B (len(xs)) and C (nc), laid out A, B, C.

    Cross edges (1-based i, j): b_t ~ a_i iff i < xs[t], and b_t ~ c_j iff
    ys[t] < j; no A-C edges. B rows come from clique, prefix and suffix
    masks; A and C rows from one running OR over the B bits bucketed by x
    and by y. Needs 1 <= xs[t] <= na and 1 <= ys[t] <= nc.
    """
    nb = len(xs)
    a_clique, b_clique, c_clique = (1 << na) - 1, (1 << nb) - 1, (1 << nc) - 1
    at_x, at_y = [0] * (na + 1), [0] * (nc + 1)  # B bits by x, by y
    rows_b = []
    for t, (x, y) in enumerate(zip(xs, ys)):
        at_x[x] |= 1 << t
        at_y[y] |= 1 << t
        rows_b.append(
            (1 << x - 1) - 1 | (b_clique ^ 1 << t) << na | (c_clique >> y << y) << na + nb
        )
    rows_a = [0] * na
    above = 0  # B bits with x > i
    for i in range(na, 0, -1):
        rows_a[i - 1] = (a_clique ^ 1 << i - 1) | above << na
        above |= at_x[i]
    rows_c = []
    below = 0  # B bits with y < j
    for j in range(1, nc + 1):
        rows_c.append(below << na | (c_clique ^ 1 << j - 1) << na + nb)
        below |= at_y[j]
    return rows_a + rows_b + rows_c


def _abc(xs: Sequence[int], ys: Sequence[int], params: dict) -> tuple[Graph, ConstructionLabels]:
    """ABC graph on three n-cliques, n = len(xs), from _triple_rows(n, n, xs, ys).

    xs and ys are permutations of 1..n: b_t is ``B:<xs[t]>``, the xs[t]-th
    vertex of the A-side order (part ``B``) and the ys[t]-th of the C-side
    order (part ``B_by_c``).
    """
    n = len(xs)
    labels = {}
    vertex_data = {}
    for i in range(1, n + 1):
        labels[i - 1] = f"A:{i}"
        labels[2 * n + i - 1] = f"C:{i}"
        vertex_data[i - 1] = {"part": "A", "index": i}
        vertex_data[2 * n + i - 1] = {"part": "C", "index": i}
    for t, (x, y) in enumerate(zip(xs, ys)):
        labels[n + t] = f"B:{x}"
        vertex_data[n + t] = {"part": "B", "index": x, "c_side_index": y}
    g = Graph(3 * n, _triple_rows(n, n, xs, ys), labels)
    meta = ConstructionLabels(
        family="abc",
        parts={
            "A": tuple(range(n)),
            "B": tuple(n + t for t in sorted(range(n), key=xs.__getitem__)),
            "C": tuple(range(2 * n, 3 * n)),
            "B_by_c": tuple(n + t for t in sorted(range(n), key=ys.__getitem__)),
        },
        vertex_data=vertex_data,
        params=params,
    )
    return g, meta


def abc_graph(n: int, perm: Sequence[int] | None = None) -> tuple[Graph, ConstructionLabels]:
    """Three n-cliques A, B, C; A-B and B-C are half graphs on independent B-orders.

    ``perm`` (1-based, default identity) sets the second B-order:
    b'_i = b_{perm[i-1]}, and b'_i ~ c_j iff i < j.
    """
    if n < 1:
        raise GraphError("abc graph needs n >= 1")
    perm = tuple(range(1, n + 1)) if perm is None else tuple(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise GraphError(f"perm must be a permutation of 1..{n}")
    inv = sorted(range(1, n + 1), key=lambda i: perm[i - 1])  # b_k = b'_{inv[k-1]}
    return _abc(range(1, n + 1), inv, {"n": n, "perm": perm})


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
    n = 2 * t + k ** 4
    labels = {}
    vertex_data = {}
    for i in range(1, t + 1):
        labels[i - 1] = f"A:{i}"
        labels[n - t + i - 1] = f"C:{i}"
        vertex_data[i - 1] = {"part": "A", "index": i}
        vertex_data[n - t + i - 1] = {"part": "C", "index": i}
    bxs, bys = [], []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for p in range(1, k + 1):
                for q in range(k):
                    bx = p * k - q + (i - 1) * k * k
                    by = q * k + p + (j - 1) * k * k
                    b = t + len(bxs)
                    bxs.append(bx)
                    bys.append(by)
                    labels[b] = f"B:{bx},{by}"
                    vertex_data[b] = {
                        "part": "B", "bx": bx, "by": by, "block": (i, j), "pq": (p, q)
                    }
    g = Graph(n, _triple_rows(t, t, bxs, bys), labels)
    meta = ConstructionLabels(
        family="gk",
        parts={"A": tuple(range(t)), "B": tuple(range(t, n - t)), "C": tuple(range(n - t, n))},
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
    The original graph re-appears as the induced subgraph on the embedded ids;
    a ``g`` whose vertex count is not that of ``meta``'s parts is refused.
    """
    if meta.family != "gk":
        raise GraphError("extend_gk_to_abc needs g_k labels")
    parts = sum(len(meta.parts[p]) for p in "ABC")
    if g.n != parts:
        raise GraphError(
            f"extend_gk_to_abc got a graph on {g.n} vertices for labels on {parts}"
        )
    k = meta.params["k"]
    big = k ** 4
    old_b = meta.parts["B"]
    by_x = sorted(old_b, key=lambda v: (meta.vertex_data[v]["bx"], v))
    by_y = sorted(old_b, key=lambda v: (meta.vertex_data[v]["by"], v))

    # new id layout: A' block 0..big-1 (in half-graph order), then B in the
    # order of old_b, then C'; a'_r ~ b iff r < b's position in the bx-order,
    # and b ~ c'_r iff b's position in the by-order < r
    b_index = {old: idx for idx, old in enumerate(old_b)}
    x_pos = [0] * big
    y_pos = [0] * big
    for pos, (ox, oy) in enumerate(zip(by_x, by_y), 1):
        x_pos[b_index[ox]] = pos
        y_pos[b_index[oy]] = pos
    embed = {old: big + idx for old, idx in b_index.items()}
    # original a_i occupies A'-position k*i; original c_j occupies C'-position k*(j-1)+1
    for i, (a, c) in enumerate(zip(meta.parts["A"], meta.parts["C"]), 1):
        embed[a] = k * i - 1
        embed[c] = 2 * big + k * (i - 1)
    out, meta_out = _abc(x_pos, y_pos, {"n": big, "from_gk": k})
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
    check_size("hni", n, i=i)
    # box rows as point masks in level-local ids: level 1 is one box over n
    # points; level j holds n shifted copies of level j-1 and then, per
    # level-(j-1) point, one box over that point's n copies
    boxes, p_count = [(1 << n) - 1], n
    for _ in range(2, i + 1):
        copies = sum(1 << c * p_count for c in range(n))
        boxes = [box << c * p_count for c in range(n) for box in boxes]
        boxes += [copies << pt for pt in range(p_count)]
        p_count *= n
    b_count = len(boxes)
    labels = {pt: f"P:{pt}" for pt in range(p_count)}
    labels.update({p_count + bx: f"Box:{bx}" for bx in range(b_count)})
    pt_rows = [col << p_count for col in _columns(boxes, p_count)]
    g = Graph(p_count + b_count, pt_rows + boxes, labels)
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
    if n < 1:
        raise GraphError("hypercube dimension must be >= 1")
    check_size("hypercube", n)
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
