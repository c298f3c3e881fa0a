"""Reference implementations used to cross-check the fast kernels.

The ``naive_*`` functions work from the definitions with plain loops and
subset enumeration, independent of the bit-row kernels under test. The
``sweep_*``, ``seen_*``, ``listbb_*``, ``restricted_*``, ``hitterlist_*``,
``nogood_*``, ``pairloop_*``, ``walk_*``, ``edgelist_*``, ``profileloop_*``,
``dict_*`` and ``scan_*`` functions are the kernels that the package used
before: full 2^n subset sweeps, a branch search over subsets that dedups its
masks through a set of every mask pushed, a list-based hitting-set branch
and bound, a transposed hitting-set kernel that rebuilds its candidate list
restricted to the pending requirements at every node, a hitting-set search
over cached per-requirement hitter lists that keeps no record of its
failures, the same search recording its failures in a nogood table, an m x m
pair loop checking half-graph orders, a pair loop checking the sd lemma with
one ``sd_pair`` and ``manhattan`` call per pair, an n x n pair loop testing
K_{2,p}-freeness, a kept x kept pair loop building induced subgraphs and a
walk over the set bits of each kept row re-indexing them one by one, the
half graph, the ABC graph, g_k, its ABC extension and the point-box
incidence family built from their edge lists, witness checks that compute
each vertex's profile with a loop over the arguments, ``normalize``
collecting the left and right ranks in two dicts, and
``find_low_fun_witness`` finding its case-2 block with nested scans.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_
from typing import Iterable

from funbox import ConstructionLabels, Graph, GraphError, from_edge_list, intervals
from funbox.graphs import MAX_VERTICES as HNI_MAX_VERTICES, SizeLimitError, bit_ids, mask_of
from funbox.intervals import PointRep, SdLemmaReport, manhattan
from funbox.parameters import (
    Witness,
    _check_vertex,
    _emit,
    pair_witness,
    sd_pair,
)


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


# ---------------------------------------------------------------------------
# full-sweep and list-based hitting-set kernels replaced by the branching
# searches and the transposed kernel in funbox.parameters
# ---------------------------------------------------------------------------

def sweep_sd_graph(g: Graph) -> int:
    """Min pairwise sd of every subset of >= 2 vertices, maximized."""
    rows = g.rows
    best = 0
    for mask in range(1, 1 << g.n):
        if mask.bit_count() < 2:
            continue
        verts = [v for v in range(g.n) if mask >> v & 1]
        cur = None
        for i, x in enumerate(verts):
            rx = rows[x]
            bx = 1 << x
            for y in verts[i + 1:]:
                d = ((rx ^ rows[y]) & mask & ~bx & ~(1 << y)).bit_count()
                if cur is None or d < cur:
                    cur = d
                    if cur <= best:
                        break
            if cur is not None and cur <= best:
                break
        if cur > best:
            best = cur
    return best


def _listbb_hittable(reqs: list[int], budget: int, allowed: int) -> bool:
    """Can ``allowed`` elements of size <= budget hit all reqs?"""
    pend = []
    for r in reqs:
        ra = r & allowed
        if ra == 0:
            return False
        pend.append(ra)
    if not pend:
        return True
    if budget <= 0:
        return False
    acc = 0
    lb = 0
    for ra in pend:
        if not ra & acc:
            lb += 1
            if lb > budget:
                return False
            acc |= ra
    branch = min(pend, key=int.bit_count)
    tried = 0
    for e in bit_ids(branch):
        be = 1 << e
        rem = [q for q in pend if not q & be]
        if _listbb_hittable(rem, budget - 1, allowed & ~tried & ~be):
            return True
        tried |= be
    return False


def listbb_min_args(rows, universe: int, y: int) -> tuple[int, list[int]]:
    """Minimum argument set for y inside ``universe``, lexicographically least."""
    reqs = restricted_conflict_requirements(rows, universe, y)
    if not reqs:
        return 0, []
    others = universe & ~(1 << y)
    nbrs = rows[y] & others
    ub = min(nbrs.bit_count(), (others & ~nbrs).bit_count())
    union = 0
    for r in reqs:
        union |= r
    k = next(b for b in range(1, ub + 1) if _listbb_hittable(reqs, b, union))
    chosen: list[int] = []
    pend = reqs
    allowed = union
    for slot in range(k):
        budget = k - slot - 1
        for e in bit_ids(allowed):
            be = 1 << e
            rem = [q for q in pend if not q & be]
            if _listbb_hittable(rem, budget, allowed & ~((be << 1) - 1)):
                chosen.append(e)
                pend = rem
                allowed &= ~((be << 1) - 1)
                break
        else:
            raise AssertionError("hitting-set reconstruction failed")
    return k, chosen


def sweep_fun_graph(g: Graph) -> int:
    """Min vertex functionality of every subset of >= 2 vertices, maximized."""
    rows = g.rows
    best = 0
    for mask in range(1, 1 << g.n):
        m = mask.bit_count()
        if m < 2:
            continue
        verts = [v for v in range(g.n) if mask >> v & 1]
        # fun(y) <= min(deg, m-1-deg) inside the subgraph, so the subset
        # cannot beat `best` unless every vertex clears that bound.
        ub = m
        for y in verts:
            d = (rows[y] & mask).bit_count()
            b = d if d < m - 1 - d else m - 1 - d
            if b < ub:
                ub = b
                if ub <= best:
                    break
        if ub <= best:
            continue
        reqs_by_y: dict[int, list[int]] = {}
        some_feasible = False
        for y in verts:
            reqs_by_y[y] = restricted_conflict_requirements(rows, mask, y)
            if _listbb_hittable(reqs_by_y[y], best, mask & ~(1 << y)):
                some_feasible = True
                break
        if some_feasible:
            continue
        # every vertex needs more than `best` arguments: compute the exact min
        sub_min = None
        for y in verts:
            reqs = reqs_by_y[y]
            hi = sub_min - 1 if sub_min is not None else ub
            for b in range(best + 1, hi + 1):
                if _listbb_hittable(reqs, b, mask & ~(1 << y)):
                    sub_min = b
                    break
        if sub_min is None:
            raise AssertionError("subset minimum escaped its degree bound")
        best = sub_min
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


# ---------------------------------------------------------------------------
# Graph row validation from the definition, and the pair loop and edge list
# replaced by whole-row checks and rows in funbox.parameters/constructions
# ---------------------------------------------------------------------------

def naive_graph_error(n: int, rows) -> str | None:
    """The message ``Graph(n, rows)`` raises for n rows, or None if it accepts."""
    for u, row in enumerate(rows):
        if not 0 <= row < 1 << n:
            return f"row {u} has bits outside 0..{n - 1}"
        if row >> u & 1:
            return f"self-loop at vertex {u}"
    for u in range(n):
        for v in range(u + 1, n):
            if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                return f"asymmetric adjacency between {u} and {v}"
    return None


def pairloop_recover_half_graph_orders(g: Graph, xs, ys):
    x_ids = sorted(set(xs))
    y_ids = sorted(set(ys))
    if not x_ids or len(x_ids) != len(y_ids):
        raise GraphError(
            f"half-graph sides must be nonempty and equal-sized "
            f"(got {len(x_ids)} and {len(y_ids)})"
        )
    x_mask = mask_of(x_ids, g.n)
    y_mask = mask_of(y_ids, g.n)
    if x_mask & y_mask:
        raise GraphError("half-graph sides must be disjoint")
    x_deg = {x: (g.rows[x] & y_mask).bit_count() for x in x_ids}
    y_deg = {y: (g.rows[y] & x_mask).bit_count() for y in y_ids}
    order_x = sorted(x_ids, key=lambda x: -x_deg[x])
    order_y = sorted(y_ids, key=lambda y: y_deg[y])
    for i, x in enumerate(order_x, start=1):
        for j, y in enumerate(order_y, start=1):
            if g.has_edge(x, y) != (i < j):
                raise GraphError(
                    f"not a half graph: pair ({x},{y}) violates the order rule"
                )
    return order_x, order_y


def _clique_edges(ids) -> list[tuple[int, int]]:
    return [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]


def naive_triple_rows(na: int, nc: int, xs, ys) -> list[int]:
    """Cliques A, B, C (na, len(xs), nc); b_t ~ a_i iff i < xs[t], b_t ~ c_j iff ys[t] < j."""
    nb = len(xs)
    a, b, c = range(na), range(na, na + nb), range(na + nb, na + nb + nc)
    edges = _clique_edges(a) + _clique_edges(b) + _clique_edges(c)
    edges += [(a[i - 1], b[t]) for t in range(nb) for i in range(1, na + 1) if i < xs[t]]
    edges += [(b[t], c[j - 1]) for t in range(nb) for j in range(1, nc + 1) if ys[t] < j]
    rows = [0] * (na + nb + nc)
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def edgelist_abc_graph(n: int, perm=None):
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
    edges = _clique_edges(a_ids) + _clique_edges(b_ids) + _clique_edges(c_ids)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            edges.append((a_ids[i - 1], b_ids[j - 1]))  # a_i ~ b_j iff i < j
            edges.append((b_ids[perm[i - 1] - 1], c_ids[j - 1]))  # b'_i ~ c_j iff i < j
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
    g = from_edge_list(3 * n, edges, labels)
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


def edgelist_g_k(k: int) -> tuple[Graph, ConstructionLabels]:
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


def edgelist_extend_gk_to_abc(
    g: Graph, meta: ConstructionLabels
) -> tuple[Graph, ConstructionLabels, dict[int, int]]:
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


# ---------------------------------------------------------------------------
# per-vertex profile loops and the per-pair sd lemma loop replaced by
# profile classes and inline row XORs in funbox.parameters/intervals
# ---------------------------------------------------------------------------

def _profile(rows, args: tuple[int, ...], z: int) -> int:
    row = rows[z]
    m = 0
    for idx, a in enumerate(args):
        if row >> a & 1:
            m |= 1 << idx
    return m


def profileloop_witness_is_valid(g: Graph, w: Witness) -> bool:
    """Check the defining property against every vertex outside args+target."""
    if w.target in w.args or len(set(w.args)) != len(w.args):
        return False
    skip = (1 << w.target) | mask_of(w.args, g.n)
    trow = g.rows[w.target]
    for z in bit_ids(g.full_mask & ~skip):
        if w.predict(_profile(g.rows, w.args, z)) != (trow >> z & 1):
            return False
    return True


def profileloop_is_function_of(g: Graph, y: int, args):
    """Decide whether y's adjacency outside S+{y} is determined by S-profiles.

    Returns (True, None), or (False, (z, z')) with the first conflicting pair:
    equal profiles on S but different adjacency to y.
    """
    _check_vertex(g, y, "y")
    s_tuple = tuple(sorted(set(args)))
    s_mask = mask_of(s_tuple, g.n)
    if s_mask >> y & 1:
        raise GraphError(f"target {y} may not appear in the argument set")
    rows = g.rows
    trow = rows[y]
    seen: dict[int, tuple[int, int]] = {}
    for z in bit_ids(g.full_mask & ~s_mask & ~(1 << y)):
        m = _profile(rows, s_tuple, z)
        a = trow >> z & 1
        if m in seen:
            z0, a0 = seen[m]
            if a0 != a:
                return False, (z0, z)
        else:
            seen[m] = (z, a)
    return True, None


def profileloop_witness_table(g: Graph, y: int, args) -> int:
    """The table ``_witness_from_args`` builds for y on ``args``, unvalidated."""
    args_t = tuple(args)
    skip = (1 << y) | mask_of(args_t, g.n)
    table = 0
    trow = g.rows[y]
    for z in bit_ids(g.full_mask & ~skip):
        if trow >> z & 1:
            table |= 1 << _profile(g.rows, args_t, z)
    return table


def pairloop_check_sd_lemma(rep) -> SdLemmaReport:
    """Assert sd(u, v) <= Manhattan(u, v) - 2 for every vertex pair."""
    g = intervals.graph_from_points(rep)
    pts = rep.points
    checked = 0
    for u in range(rep.n):
        for v in range(u + 1, rep.n):
            checked += 1
            d = sd_pair(g, u, v)
            dist = manhattan(pts[u], pts[v])
            if d > dist - 2:
                return SdLemmaReport(checked, (u, v, d, dist))
    return SdLemmaReport(checked, None)


def dict_normalize(rep) -> PointRep:
    """Endpoint ranks 1..2n, ties left-endpoint-first, then by interval id."""
    events = []
    for idx, (lo, hi) in enumerate(rep.intervals):
        events.append((lo, 0, idx))
        events.append((hi, 1, idx))
    events.sort()
    left = {}
    right = {}
    for rank, (_, kind, idx) in enumerate(events, start=1):
        if kind == 0:
            left[idx] = rank
        else:
            right[idx] = rank
    return PointRep(points=tuple((left[i], right[i]) for i in range(rep.n)))


# ---------------------------------------------------------------------------
# the restricted-list hitting-set kernel replaced by per-requirement hitter
# lists in funbox.parameters: every node rebuilds its candidate list
# restricted to the pending requirements
# ---------------------------------------------------------------------------

def restricted_conflict_requirements(rows, universe: int, y: int) -> list[int]:
    """Requirement masks: every valid argument set must hit each of them."""
    others = universe & ~(1 << y)
    ay = rows[y]
    pos = [z for z in bit_ids(others) if ay >> z & 1]
    neg = [z for z in bit_ids(others) if not ay >> z & 1]
    reqs = set()
    for z in pos:
        rz = rows[z]
        bz = 1 << z
        for w in neg:
            reqs.add(((rz ^ rows[w]) | bz | (1 << w)) & others)
    return sorted(reqs, key=int.bit_count)


def restricted_arg_system(rows, universe: int, y: int) -> tuple[list[tuple[int, int]], int]:
    """y's argument sets inside ``universe`` as a transposed hitting-set instance.

    Returns (cands, need): ``need`` has one bit per conflict requirement, and
    ``cands`` lists, in increasing id order, each vertex e that hits some
    requirement as (e, mask of the requirement indices e hits).
    """
    reqs = restricted_conflict_requirements(rows, universe, y)
    # transpose the bit matrix whose row i is reqs[i] through binary strings:
    # column j of the strings (most significant bit first) is vertex width-1-j
    width = universe.bit_length()
    lines = [format(r, f"0{width}b") for r in reversed(reqs)]
    cover = [int("".join(col), 2) for col in zip(*lines)][::-1]
    return [(e, c) for e, c in enumerate(cover) if c], (1 << len(reqs)) - 1


def restricted_hit(cands: list[tuple[int, int]], need: int, budget: int):
    """At most ``budget`` candidates hitting every requirement in ``need``.

    ``need`` is a mask of requirement indices and ``cands`` lists each usable
    element as (e, mask of the pending requirements e hits), nonzero masks
    only. Returns the chosen elements as a mask, or None when no such set
    exists.

    A node is cut when the candidates miss a pending requirement, or when
    ``budget`` elements of the largest coverage cannot reach them all. It
    branches on the pending requirement of lowest index, the smallest one
    at the start since ``restricted_conflict_requirements`` sorts by size; an
    element already tried is left out of the later branches.
    """
    if not need:
        return 0
    if budget <= 0:
        return None
    hits = [c for _, c in cands]
    size = need.bit_count()
    if reduce(or_, hits, 0) != need:
        return None
    top = max(map(int.bit_count, hits))
    if top * budget < size:
        return None
    if top == size:
        return next(1 << e for e, c in cands if c == need)
    # no single element suffices, so budget >= 2 here
    low = need & -need
    if budget == 2:
        # a second element must hit everything the first one leaves
        misses = [~c for c in hits]
        for e, c in cands:
            if c & low:
                rest = need & ~c
                if 0 in map(rest.__and__, misses):
                    return 1 << e | next(1 << f for f, d in cands if d & rest == rest)
        return None
    pool = cands
    for e, c in cands:
        if c & low:
            pool = [p for p in pool if p[0] != e]
            rest = need & ~c
            sub = restricted_hit([(f, d & rest) for f, d in pool if d & rest], rest, budget - 1)
            if sub is not None:
                return sub | 1 << e
    return None


def restricted_min_args(rows, universe: int, y: int) -> tuple[int, list[int]]:
    """Exact minimum argument set for y inside ``universe``.

    Returns (k, ids) with ids the lexicographically least minimum set
    (ordered as a sorted id list), matching naive subset enumeration.
    """
    cands, need = restricted_arg_system(rows, universe, y)
    if not need:
        return 0, []
    others = universe & ~(1 << y)
    nbrs = rows[y] & others
    ub = min(nbrs.bit_count(), (others & ~nbrs).bit_count())
    k = next(b for b in range(1, ub + 1) if restricted_hit(cands, need, b) is not None)
    chosen: list[int] = []
    for slot in range(k):
        budget = k - slot - 1
        for i, (e, c) in enumerate(cands):
            rest = need & ~c
            later = [(f, d & rest) for f, d in cands[i + 1:] if d & rest]
            if restricted_hit(later, rest, budget) is not None:
                chosen.append(e)
                need, cands = rest, later
                break
        else:
            raise AssertionError("hitting-set reconstruction failed")
    return k, chosen


# ---------------------------------------------------------------------------
# the hitter-list searches replaced in funbox.parameters._hit by a stateless
# one that walks each requirement's vertex mask: the first keeps no record of
# its failures, the second records them as nogoods and tests budget 1 on
# vertex masks. Both take their hitter lists from a per-system cache.
# ---------------------------------------------------------------------------

class Hitters(dict):
    """Requirement bit -> the elements hitting that requirement.

    Each list holds (1 << e, cover[e]) for the elements e of the requirement,
    in increasing id order, and is built the first time its bit is looked
    up. ``cover[e]`` is the mask of every requirement bit e hits, pending or
    not, so no list depends on the search that asks for it and one cache
    serves every search on the same system. ``nogoods`` maps a pending mask
    to the (budget, tried) pairs at which the search failed on it, and
    ``log`` lists the masks of the entries that the running ``nogood_hit``
    has made, in order, so that a failed search can take them back.
    """

    __slots__ = ("reqs", "cover", "nogoods", "log")

    def __init__(self, reqs: list[int], cover: list[int]):
        super().__init__()
        self.reqs = reqs
        self.cover = cover
        self.nogoods = {}
        self.log = []

    def __missing__(self, low: int) -> list[tuple[int, int]]:
        cover = self.cover
        pairs = self[low] = [
            (1 << e, cover[e]) for e in bit_ids(self.reqs[low.bit_length() - 1])
        ]
        return pairs


def hitterlist_hit(need: int, budget: int, hitters: Hitters, tried: int = 0):
    """At most ``budget`` elements outside ``tried`` hitting every bit of ``need``.

    ``need`` is a mask of requirement bits, ``hitters`` the system's cache of
    hitter lists and ``tried`` a vertex mask. Returns the chosen elements as
    a vertex mask, or None when no such set exists.

    The search branches on the lowest pending requirement, the smallest at
    the start, and tries its hitters in id order; a hitter that fails is
    added to ``tried`` for the later branches, since every set holding it
    was just ruled out. So a failure is absolute: None means that no set of
    at most ``budget`` elements outside ``tried`` hits ``need``, whichever
    search asked, and the k-search, the lexicographic reconstruction and
    ``_fun_branch`` share one cache and pass their exclusions as ``tried``.

    Nothing is cut before branching. A reach bound (every pending
    requirement keeps an untried hitter) and a coverage bound (``budget``
    elements of the largest cover can cover all that is pending) cost a
    rebuilt candidate list and two scans at every node, and on G(32, 1/2)
    and small random and interval graphs the reach bound never cut above
    budget 1 and the coverage bound cut under 1% of the nodes at budgets
    2 and 3. At budget 1 the loop below is the exact test, and a
    requirement left without an untried hitter fails as soon as it is the
    lowest pending one.
    """
    if not need:
        return 0
    if budget <= 0:
        return None
    pairs = hitters[need & -need]
    if budget == 1:
        for b, c in pairs:
            if not need & ~c and not tried & b:
                return b
        return None
    if budget == 2:
        # one hitter of the rest must cover all of it: the budget-1 loop inline
        for b, c in pairs:
            if not tried & b:
                rest = need & ~c
                if not rest:
                    return b
                for b2, c2 in hitters[rest & -rest]:
                    if not rest & ~c2 and not tried & b2:
                        return b | b2
                tried |= b
        return None
    for b, c in pairs:
        if not tried & b:
            sub = hitterlist_hit(need & ~c, budget - 1, hitters, tried)
            if sub is not None:
                return sub | b
            tried |= b
    return None


def nogood_hit(need: int, budget: int, hitters: Hitters, tried: int = 0):
    """At most ``budget`` elements outside ``tried`` hitting every bit of ``need``.

    ``need`` is a mask of requirement bits, ``hitters`` the system's cache of
    hitter lists and ``tried`` a vertex mask. Returns the chosen elements as
    a vertex mask, or None when no such set exists.

    The search branches on the lowest pending requirement, the smallest at
    the start, and tries its hitters in id order; a hitter that fails is
    added to ``tried`` for the later branches, since every set holding it
    was just ruled out. So a failure is absolute: None means that no set of
    at most ``budget`` elements outside ``tried`` hits ``need``, whichever
    search asked, and the k-search, the lexicographic reconstruction and
    ``_fun_branch`` share one cache and pass their exclusions as ``tried``.

    Failures are remembered as nogoods (Dechter, "Enhancement schemes for
    constraint processing", 1990). A node at budget 2 or more that fails
    records (budget, tried), with ``tried`` as it stood on entry, under its
    ``need``. A node whose ``need`` holds an entry with a budget at least
    its own and a ``tried`` inside its own fails at once: every set it
    could return is one that the recorded failure ruled out. Only failures
    are skipped, so every set returned is the one the full search returns.
    The table keeps what a successful search recorded on its way, which the
    reconstruction asks again, and drops what a failed search recorded: its
    caller goes on to a larger budget or to another element, where those
    entries do not cut. Kept, they held about 30,000 entries of 4 kB each
    on vertex 0 of ``H^5_5``, and none of them cut a node.

    Budget 1 builds no hitter list. The one element lies in every pending
    requirement, so the vertex masks of the three lowest pending ones, less
    ``tried``, leave the only candidates, usually three or fewer, and each
    is checked against all of ``need``; the lowest that passes is the one a
    scan of the lowest requirement's hitters would return. The budget-2
    loop runs the same test inline on what each first element leaves.
    """
    found = nogood_search(need, budget, hitters, tried)
    log = hitters.log
    if log:
        if found is None:
            nogoods = hitters.nogoods
            for key in reversed(log):
                entries = nogoods[key]
                entries.pop()
                if not entries:
                    del nogoods[key]
        log.clear()
    return found


def nogood_search(need: int, budget: int, hitters: Hitters, tried: int):
    """``nogood_hit`` below the top level: the branching, and the nogoods it
    consults and records."""
    if not need:
        return 0
    if budget <= 0:
        return None
    reqs, cover = hitters.reqs, hitters.cover
    if budget == 1:
        low = need & -need
        cand = reqs[low.bit_length() - 1] & ~tried
        rest = need ^ low
        if rest and cand:
            low = rest & -rest
            cand &= reqs[low.bit_length() - 1]
            rest ^= low
            if rest and cand:
                low = rest & -rest
                cand &= reqs[low.bit_length() - 1]
        while cand:
            b = cand & -cand
            if not need & ~cover[b.bit_length() - 1]:
                return b
            cand ^= b
        return None
    failed = hitters.nogoods.get(need)
    if failed is not None:
        for b0, t0 in failed:
            if b0 >= budget and not t0 & ~tried:
                return None
    entry = tried
    pairs = hitters[need & -need]
    if budget == 2:
        # one element of the rest must hit all of it: budget 1 inline
        for b, c in pairs:
            if not tried & b:
                rest = need & ~c
                if not rest:
                    return b
                low = rest & -rest
                cand = reqs[low.bit_length() - 1] & ~tried
                more = rest ^ low
                if more and cand:
                    low = more & -more
                    cand &= reqs[low.bit_length() - 1]
                    more ^= low
                    if more and cand:
                        low = more & -more
                        cand &= reqs[low.bit_length() - 1]
                while cand:
                    b2 = cand & -cand
                    if not rest & ~cover[b2.bit_length() - 1]:
                        return b | b2
                    cand ^= b2
                tried |= b
    else:
        for b, c in pairs:
            if not tried & b:
                sub = nogood_search(need & ~c, budget - 1, hitters, tried)
                if sub is not None:
                    return sub | b
                tried |= b
    hitters.nogoods.setdefault(need, []).append((budget, entry))
    hitters.log.append(need)
    return None



# ---------------------------------------------------------------------------
# the pair loop replaced by bit-sliced common-neighbour counters in
# funbox.parameters._k2p_free
# ---------------------------------------------------------------------------

def pairloop_k2p_free(g: Graph, p: int) -> bool:
    """No two vertices share ``p`` or more neighbours, pair by pair."""
    for u in range(g.n):
        ru = g.rows[u]
        for v in range(u + 1, g.n):
            if (ru & g.rows[v]).bit_count() >= p:
                return False
    return True


# ---------------------------------------------------------------------------
# generators that funbox.constructions now builds as rows, from their edge
# lists, and find_low_fun_witness with its block scans and table loop
# ---------------------------------------------------------------------------

def edgelist_half_graph(n: int) -> tuple[Graph, ConstructionLabels]:
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


def edgelist_point_box_incidence(n: int, i: int) -> tuple[Graph, ConstructionLabels]:
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


def scan_find_low_fun_witness(rep) -> Witness:
    """Validated witness with at most 8 arguments for some vertex.

    n <= 8: vertex 0 with all others as arguments. Otherwise split the
    coordinate lines into 5-line stripes. A block with two points gives a
    distinguisher pair witness (<= 7 args). Otherwise the first non-empty
    non-marginal block in row-major order yields a vertex x, the nearest
    point y above it in its vertical stripe and nearest point z to its left
    in its horizontal stripe: x's adjacency is the conjunction of y's and
    z's bits, with the intervals owning an endpoint strictly between the
    columns of x,y or the rows of x,z as inessential extras.
    """
    pts = rep.points
    n = rep.n
    g = intervals.graph_from_points(rep)
    if n <= 8:
        args = tuple(range(1, n))
        return _emit(g, Witness(0, args, 0, "small-n"))

    blocks: dict[tuple[int, int], list[int]] = {}
    for idx, (i, j) in enumerate(pts):
        blocks.setdefault((intervals._stripe(i), intervals._stripe(j)), []).append(idx)

    crowded = sorted(key for key, ids in blocks.items() if len(ids) >= 2)
    if crowded:
        ids = sorted(blocks[crowded[0]])
        x, y = ids[0], ids[1]
        w = pair_witness(g, x, y, "distinguishers")
        return _emit(g, Witness(w.target, w.args, w.table, "stripe-case1"))

    # every block holds at most one point: locate a non-marginal one
    leftmost: dict[int, int] = {}
    topmost: dict[int, int] = {}
    for vs, hs in blocks:
        if hs not in leftmost or vs < leftmost[hs]:
            leftmost[hs] = vs
        if vs not in topmost or hs > topmost[vs]:
            topmost[vs] = hs
    target_block = None
    for hs in sorted({key[1] for key in blocks}):
        for vs in sorted({key[0] for key in blocks if key[1] == hs}):
            if (vs, hs) in blocks and leftmost[hs] != vs and topmost[vs] != hs:
                target_block = (vs, hs)
                break
        if target_block:
            break
    if target_block is None:
        raise AssertionError("no non-marginal block although n >= 9")
    vs, hs = target_block
    x = blocks[target_block][0]
    xi, xj = pts[x]
    above = [
        idx
        for idx, (i, j) in enumerate(pts)
        if intervals._stripe(i) == vs and j > xj
    ]
    left = [
        idx
        for idx, (i, j) in enumerate(pts)
        if intervals._stripe(j) == hs and i < xi
    ]
    y = min(above, key=lambda idx: pts[idx][1])
    z = max(left, key=lambda idx: pts[idx][0])
    col_lo, col_hi = sorted((xi, pts[y][0]))
    row_lo, row_hi = sorted((xj, pts[z][1]))
    extras = [
        idx
        for idx, (i, j) in enumerate(pts)
        if idx not in (x, y, z)
        and (
            col_lo < i < col_hi
            or col_lo < j < col_hi
            or row_lo < i < row_hi
            or row_lo < j < row_hi
        )
    ]
    args = (y, z, *sorted(extras))
    k = len(args)
    # prediction: adjacent to x iff adjacent to both y and z (bits 0 and 1)
    table = 0
    for m in range(1 << k):
        if m & 1 and m >> 1 & 1:
            table |= 1 << m
    return _emit(g, Witness(x, args, table, "stripe-case2"))


# ---------------------------------------------------------------------------
# the pair loop replaced in funbox.graphs.induced_subgraph by a walk over the
# set bits of each kept row
# ---------------------------------------------------------------------------

def pairloop_induced_subgraph(g: Graph, subset: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``subset`` plus the old-id -> new-id map.

    New ids preserve the relative order of the old ids.
    """
    old_ids = sorted(set(subset))
    if not old_ids:
        raise GraphError("induced subgraph requires a nonempty vertex set")
    mapping = {}
    for old in old_ids:
        if not 0 <= old < g.n:
            raise GraphError(f"vertex id {old} out of range 0..{g.n - 1}")
        mapping[old] = len(mapping)
    rows = []
    for old in old_ids:
        row = 0
        src = g.rows[old]
        for other, new in mapping.items():
            if src >> other & 1:
                row |= 1 << new
        rows.append(row)
    labels = None
    if g.labels:
        labels = {mapping[o]: g.labels[o] for o in old_ids if o in g.labels}
    return Graph(len(old_ids), rows, labels), mapping


def walk_induced_subgraph(g: Graph, subset: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``subset`` plus the old-id -> new-id map, each new
    row built by walking the set bits of the kept row masked to the kept ids.
    """
    old_ids = sorted(set(subset))
    if not old_ids:
        raise GraphError("induced subgraph requires a nonempty vertex set")
    kept = mask_of(old_ids, g.n)
    mapping = {old: new for new, old in enumerate(old_ids)}
    rows = []
    for old in old_ids:
        row = 0
        for other in bit_ids(g.rows[old] & kept):
            row |= 1 << mapping[other]
        rows.append(row)
    labels = None
    if g.labels:
        labels = {mapping[o]: g.labels[o] for o in old_ids if o in g.labels}
    return Graph(len(old_ids), rows, labels), mapping


# ---------------------------------------------------------------------------
# the branch search replaced in funbox.parameters._branch_search by one that
# carries a forced set with each mask and splits the subsets disjointly
# ---------------------------------------------------------------------------

def seen_branch_search(full: int, step, floor) -> int:
    """Largest value over the subsets of ``full``, by depth-first branching.

    ``step(mask, best)`` returns the new best and a branching set B such that
    no subset of ``mask`` holding all of B beats it, so the search visits
    only mask - b for b in B, each subset at most once. ``floor(best)`` is
    the fewest vertices a set needs to beat ``best``: a smaller mask is not
    stepped, and a mask whose children would be smaller does not push them.
    """
    best = 0
    least = floor(best)
    seen = set()
    stack = [full]
    while stack:
        mask = stack.pop()
        size = mask.bit_count()
        if size < least:
            continue
        value, branch = step(mask, best)
        if value != best:
            best = value
            least = floor(best)
        if size <= least:
            continue
        for v in bit_ids(branch):
            child = mask & ~(1 << v)
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return best
