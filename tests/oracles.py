"""Naive reference implementations used to cross-check the fast kernels.

Everything here works from the definitions with plain loops and subset
enumeration, independent of the bit-row kernels under test.
"""

from __future__ import annotations

import itertools

from funbox import Graph, from_edge_list


def adjacent(g: Graph, u: int, v: int) -> bool:
    return bool(g.rows[u] >> v & 1)


def naive_sd_pair(g: Graph, x: int, y: int) -> int:
    return sum(
        1
        for z in range(g.n)
        if z != x and z != y and adjacent(g, z, x) != adjacent(g, z, y)
    )


def naive_is_function_of(g: Graph, y: int, args) -> bool:
    args = tuple(args)
    outside = [z for z in range(g.n) if z != y and z not in args]
    classes: dict[tuple, set] = {}
    for z in outside:
        profile = tuple(adjacent(g, z, a) for a in args)
        classes.setdefault(profile, set()).add(adjacent(g, y, z))
    return all(len(vals) == 1 for vals in classes.values())


def naive_fun_vertex(g: Graph, y: int) -> tuple[int, tuple[int, ...]]:
    others = [v for v in range(g.n) if v != y]
    for k in range(len(others) + 1):
        for combo in itertools.combinations(others, k):
            if naive_is_function_of(g, y, combo):
                return k, combo
    raise AssertionError("unreachable")


def subgraph_on(g: Graph, verts) -> Graph:
    verts = sorted(verts)
    idx = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        for w in verts:
            if v != w and adjacent(g, v, w):
                rows[idx[v]] |= 1 << idx[w]
    return Graph(len(verts), rows)


def naive_fun_graph(g: Graph) -> int:
    best = 0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            h = subgraph_on(g, combo)
            best = max(best, min(naive_fun_vertex(h, y)[0] for y in range(h.n)))
    return best


def naive_sd_graph(g: Graph) -> int:
    if g.n < 2:
        return 0
    best = 0
    for size in range(2, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            h = subgraph_on(g, combo)
            best = max(
                best,
                min(
                    naive_sd_pair(h, x, y)
                    for x in range(h.n)
                    for y in range(x + 1, h.n)
                ),
            )
    return best


def naive_is_threshold(g: Graph) -> bool:
    """Every nonempty induced subgraph has an isolated or dominating vertex."""
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            h = subgraph_on(g, combo)
            if not any(
                h.degree(v) in (0, h.n - 1) for v in range(h.n)
            ):
                return False
    return True


# ---------------------------------------------------------------------------
# intersection graphs by pairwise comparison (closed sides: touching meets)
# ---------------------------------------------------------------------------

def naive_graph_from_intervals(rep) -> Graph:
    iv = rep.intervals
    n = len(iv)
    rows = [0] * n
    for u in range(n):
        lu, ru = iv[u]
        for v in range(u + 1, n):
            lv, rv = iv[v]
            if max(lu, lv) <= min(ru, rv):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows)


def _boxes_intersect(b1, b2) -> bool:
    return all(max(l1, l2) <= min(h1, h2) for (l1, h1), (l2, h2) in zip(b1, b2))


def naive_graph_from_boxes(bs) -> Graph:
    m = len(bs.boxes)
    rows = [0] * m
    for u in range(m):
        for v in range(u + 1, m):
            if _boxes_intersect(bs.boxes[u], bs.boxes[v]):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(m, rows, dict(bs.labels) if bs.labels else None)


def naive_incidence_graph(points, bs) -> Graph:
    """Points first, then boxes; expects points with bs.d coordinates."""
    np_ = len(points)
    edges = []
    for bi, box in enumerate(bs.boxes):
        for pi, pt in enumerate(points):
            if all(lo <= c <= hi for c, (lo, hi) in zip(pt, box)):
                edges.append((pi, np_ + bi))
    return from_edge_list(np_ + len(bs.boxes), edges)
