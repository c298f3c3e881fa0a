"""Exact functionality and symmetric-difference computation.

A vertex y is a function of an argument list S if one Boolean table over the
adjacency pattern to S predicts y's adjacency to every vertex outside
S + {y}. The minimum |S| is the functionality of y. Graph-level values
maximize the per-subgraph minimum over all induced subgraphs; they are exact
searches guarded by size limits that branch on witnesses instead of
visiting all 2^n subsets. Both rest on one lemma each:

- sd: if (x, y) is a least-sd pair of S, every subset of S holding x and y
  has sd(x, y) at most sd_S(x, y), so only subsets of S - x or S - y can
  have a larger minimum.
- fun: if v is a function of A inside S, it is a function of A inside every
  subset of S holding A + v. So a subset can beat a witness with
  |A| <= best only by missing a vertex of A + v. Witnesses come from
  degrees, from a pair x, y (x is a function of y and the vertices
  distinguishing x from y, so fun <= sd + 1), or from the hitting-set
  kernel.

Either lemma gives a branching set B: no subset of S holding all of B beats
the best value. The search carries a forced set F with each S and covers
the subsets between F and S. Those that miss a vertex of B - F are split by
the first one they miss, so the subtrees are disjoint, no subset is met
twice and no record of visited subsets is kept; when B lies inside F, no
subset of the subtree can beat the best and it is dropped (see
``_branch_search``).

The per-vertex minimum is solved as a minimum hitting set over conflict
pairs: for every pair (z, z') with different adjacency to y, the argument
set must contain z, z', or a vertex distinguishing them. The kernel works
on the transposed instance, one requirement-index mask per vertex (the
columns of the requirement rows, from ``graphs._columns``), and keeps no
state between calls: ``_hit`` branches on the untried vertices of the
lowest pending requirement in id order, and a vertex that fails is
excluded through a ``tried`` mask, so a failure holds whatever search
asked. The k-search, the least-lexicographic reconstruction and the
witness search of ``fun_graph`` pass their exclusions as ``tried``. Budgets
1 and 2, where most nodes sit, have fast paths (see ``_hit``).

Checking a given argument list works on classes, not vertices:
``_profile_classes`` splits the vertices outside S + {y} by each argument
row in turn (partition refinement, as in Paige and Tarjan, "Three partition
refinement algorithms", 1987), and y is a function of S exactly when each
class lies inside N(y) or misses it. The table of a witness has bit m set
for the class of profile m that meets N(y).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .graphs import Graph, GraphError, SizeLimitError, _columns, _json_int, bit_ids, mask_of

FUN_MAX_N_DEFAULT = 12
SD_MAX_N_DEFAULT = 14

# Witness tables are dense bit vectors of length 2^k; refuse absurd arities.
TABLE_ARITY_LIMIT = 24


class PremiseViolation(GraphError):
    """A refutation was requested on a graph violating its premises.

    Carries the full list of violated premises; raising this is a legal
    outcome of ``refute_function``, not a bug.
    """

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("premises violated: " + "; ".join(violations))


@dataclass(frozen=True)
class Witness:
    """Certificate that ``target`` is a function of ``args``.

    ``table`` is an int bit vector of length 2^k: bit m predicts adjacency of
    ``target`` to any vertex whose adjacency pattern to ``args`` is m (bit i
    of m = adjacency to args[i]).
    """

    target: int
    args: tuple[int, ...]
    table: int
    origin: str

    @property
    def arity(self) -> int:
        return len(self.args)

    def predict(self, profile: int) -> int:
        return self.table >> profile & 1

    def table_bits(self) -> str:
        return "".join(str(self.table >> m & 1) for m in range(1 << self.arity))


def witness_to_json(w: Witness) -> dict:
    return {
        "target": w.target,
        "args": list(w.args),
        "table_bits": w.table_bits(),
        "origin": w.origin,
    }


def witness_from_json(data: dict) -> Witness:
    if not isinstance(data, dict):
        raise GraphError(
            "witness JSON must be an object with keys 'target', 'args', "
            "'table_bits' and 'origin'"
        )
    for key in ("target", "args", "table_bits", "origin"):
        if key not in data:
            raise GraphError(f"witness JSON is missing key {key!r}")
    target = _json_int(data["target"], "witness 'target'")
    if not isinstance(data["args"], list):
        raise GraphError("witness JSON 'args' must be a list")
    args = tuple(_json_int(a, "witness argument") for a in data["args"])
    bits, origin = data["table_bits"], data["origin"]
    if not isinstance(bits, str) or not isinstance(origin, str):
        raise GraphError("witness JSON 'table_bits' and 'origin' must be strings")
    if len(bits) != 1 << len(args):
        raise GraphError("table_bits length must be 2^len(args)")
    table = 0
    for m, ch in enumerate(bits):
        if ch == "1":
            table |= 1 << m
        elif ch != "0":
            raise GraphError("table_bits must be a 0/1 string")
    return Witness(target, args, table, origin)


def _profile_classes(rows, args, rest: int) -> list[tuple[int, int]]:
    """The vertices of ``rest`` grouped by their adjacency profile to ``args``.

    Returns the nonempty classes as (profile, mask), where bit i of the
    profile is adjacency to args[i]: ``rest`` is split by each argument row
    in turn, so there are at most min(2^k, |rest|) classes.
    """
    classes = [(0, rest)] if rest else []
    for idx, a in enumerate(args):
        r = rows[a]
        bit = 1 << idx
        split = []
        for m, c in classes:
            inside = c & r
            if inside != c:
                split.append((m, c ^ inside))
            if inside:
                split.append((m | bit, inside))
        classes = split
    return classes


def witness_is_valid(g: Graph, w: Witness) -> bool:
    """Check the defining property against every vertex outside args+target."""
    _check_vertex(g, w.target, "target")
    if w.target in w.args or len(set(w.args)) != len(w.args):
        return False
    skip = (1 << w.target) | mask_of(w.args, g.n)
    trow = g.rows[w.target]
    for m, c in _profile_classes(g.rows, w.args, g.full_mask & ~skip):
        if c & (~trow if w.table >> m & 1 else trow):
            return False
    return True


def _emit(g: Graph, w: Witness) -> Witness:
    if not witness_is_valid(g, w):
        raise AssertionError(f"emitted witness failed validation: {w}")
    return w


def _resolve_limit(max_n, default: int) -> int:
    """The size guard: ``max_n`` if given, else FUNBOX_MAX_N if set, else
    ``default``. A guard that is not a non-negative integer is a GraphError
    that names where it came from."""
    if max_n is not None:
        source, limit = "max_n / --max-n", max_n
    else:
        env = os.environ.get("FUNBOX_MAX_N")
        if not env:
            return default
        source = "FUNBOX_MAX_N"
        limit = int(env) if env.strip().isdecimal() else env
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        raise GraphError(f"{source} must be a non-negative integer, got {limit!r}")
    return limit


def _check_vertex(g: Graph, v: int, name: str = "vertex") -> None:
    if not 0 <= v < g.n:
        raise GraphError(f"{name} {v} out of range 0..{g.n - 1}")


# ---------------------------------------------------------------------------
# symmetric difference
# ---------------------------------------------------------------------------

def sd_pair(g: Graph, x: int, y: int) -> int:
    """Number of vertices outside {x, y} adjacent to exactly one of x, y."""
    _check_vertex(g, x, "x")
    _check_vertex(g, y, "y")
    if x == y:
        raise GraphError("sd_pair requires two distinct vertices")
    diff = (g.rows[x] ^ g.rows[y]) & ~(1 << x) & ~(1 << y)
    return diff.bit_count()


def _min_pair_sd(rows, mask: int, enough: int = 0) -> tuple[int, int, int]:
    """Least sd inside ``mask`` (>= 2 vertices) and a pair (x, y) reaching it.

    Stops at the first pair with sd <= ``enough`` and returns that pair
    instead, for callers that only need some pair at most that far apart.
    """
    verts = list(bit_ids(mask))
    inside = [rows[v] & mask for v in verts]
    best = (mask.bit_count(), -1, -1)
    for i, (x, rx) in enumerate(zip(verts, inside)):
        for y, ry in zip(verts[i + 1:], inside[i + 1:]):
            # bits x and y of rx ^ ry are both set iff x ~ y; neither counts
            d = (rx ^ ry).bit_count() - 2 * (rx >> y & 1)
            if d < best[0]:
                best = (d, x, y)
                if d <= enough:
                    return best
    return best


def _branch_search(full: int, step, floor) -> int:
    """Largest value over the subsets of ``full``, by depth-first branching.

    ``step(mask, best)`` returns the new best and a branching set B such that
    no subset of ``mask`` holding all of B beats it. Each stack entry is a
    mask with a forced set F inside it and stands for the subsets T with
    F <= T <= mask. A subset left to beat the best misses some vertex of
    B - F, so for the free vertices b_1 < ... < b_r of B - F, child i is
    mask - b_i with b_1..b_{i-1} forced as well: the children split the
    subsets by the first free vertex they miss, no subset lies in two
    subtrees and no mask is stepped twice (the include/exclude split of
    Bron and Kerbosch, CACM 1973). When B lies inside F, every subset of
    the entry holds B and the entry pushes nothing. ``floor(best)`` is the
    fewest vertices a set needs to beat ``best``: a smaller mask is not
    stepped, and a mask whose children would be smaller does not push them.
    """
    best = 0
    least = floor(best)
    stack = [(full, 0)]
    while stack:
        mask, forced = stack.pop()
        size = mask.bit_count()
        if size < least:
            continue
        value, branch = step(mask, best)
        if value != best:
            best = value
            least = floor(best)
        if size <= least:
            continue
        free = branch & ~forced
        while free:
            b = free & -free
            stack.append((mask ^ b, forced))
            forced |= b
            free ^= b
    return best


def _sd_floor(best: int) -> int:
    # in any three vertices the third fails to tell some pair apart (the
    # three XORs of their adjacencies sum to 0 mod 2), so a k-set has
    # min-pair sd at most k - 3
    return best + 4


def _sd_branch(rows, mask: int, best: int) -> tuple[int, int]:
    """One step of the sd search: (max(best, min-pair sd of mask), a pair).

    A subset T of S holding both x and y has sd_T(x, y) <= sd_S(x, y). So
    when (x, y) is a least-sd pair of S, or any pair with sd_S(x, y) <= best,
    only subsets of S - x or S - y can beat the returned value. ``mask``
    holds at least ``best`` + 4 vertices (see ``_sd_floor``).
    """
    d, x, y = _min_pair_sd(rows, mask, best)
    return max(best, d), 1 << x | 1 << y


def sd_graph(g: Graph, max_n: int | None = None) -> int:
    """Max over induced subgraphs (>= 2 vertices) of the min pairwise sd.

    Exact by branching on a least-sd pair (see ``_sd_branch``): a subset
    that beats the best misses x or y, so the search splits into S - x, and
    S - y with x forced, and drops a subtree in which both are forced (see
    ``_branch_search``). 0 for graphs with fewer than 2 vertices.
    """
    limit = _resolve_limit(max_n, SD_MAX_N_DEFAULT)
    if g.n > limit:
        raise SizeLimitError(
            f"sd_graph guard is {limit} vertices (got {g.n}); "
            "raise max_n or FUNBOX_MAX_N"
        )
    return _branch_search(g.full_mask, partial(_sd_branch, g.rows), _sd_floor)


# ---------------------------------------------------------------------------
# is_function_of and the hitting-set kernel
# ---------------------------------------------------------------------------

def is_function_of(g: Graph, y: int, args: Iterable[int]):
    """Decide whether y's adjacency outside S+{y} is determined by S-profiles.

    Returns (True, None), or (False, (z, z')) with the first conflicting pair:
    equal profiles on S but different adjacency to y.
    """
    _check_vertex(g, y, "y")
    s_tuple = tuple(sorted(set(args)))
    s_mask = mask_of(s_tuple, g.n)
    if s_mask >> y & 1:
        raise GraphError(f"target {y} may not appear in the argument set")
    trow = g.rows[y]
    # the first conflict of a scan in id order: in each class holding both
    # adjacencies, z0 is its lowest vertex and z its lowest vertex of the
    # other adjacency; the class with the least z comes first
    pair = None
    for _, c in _profile_classes(g.rows, s_tuple, g.full_mask & ~s_mask & ~(1 << y)):
        if c & trow and c & ~trow:
            z0 = c & -c
            other = c & (~trow if z0 & trow else trow)
            z = (other & -other).bit_length() - 1
            if pair is None or z < pair[1]:
                pair = (z0.bit_length() - 1, z)
    return pair is None, pair


def _arg_system(rows, universe: int, y: int) -> tuple[int, list[int], list[int]]:
    """y's argument sets inside ``universe`` as a transposed hitting-set instance.

    For z ~ y and w !~ y in ``universe``, every argument set holds z, w or a
    vertex telling them apart; that vertex mask is a requirement. Returns
    (need, reqs, cover): ``reqs`` lists the distinct requirements, smallest
    first, ``need`` has one bit per requirement, and ``cover[e]`` is the mask
    of the requirement bits vertex e hits.
    """
    others = universe & ~(1 << y)
    ay = rows[y]
    pos = [(rows[z] & others, 1 << z) for z in bit_ids(others & ay)]
    neg = [(rows[w] & others, 1 << w) for w in bit_ids(others & ~ay)]
    reqs = sorted({(a ^ b) | bz | bw for a, bz in pos for b, bw in neg}, key=int.bit_count)
    return (1 << len(reqs)) - 1, reqs, _columns(reqs, universe.bit_length())


def _hit(need: int, budget: int, reqs: list[int], cover: list[int], tried: int = 0):
    """At most ``budget`` elements outside ``tried`` hitting every bit of ``need``.

    ``need`` is a mask of requirement bits, ``reqs`` and ``cover`` the system
    from ``_arg_system`` and ``tried`` a vertex mask. Returns the chosen
    elements as a vertex mask, or None when no such set exists.

    The search branches on the lowest pending requirement, the smallest at
    the start, and tries its untried elements in id order; an element that
    fails is added to ``tried`` for the later branches, since every set
    holding it was just ruled out. So None means that no set of at most
    ``budget`` elements outside ``tried`` hits ``need``, and the k-search,
    the lexicographic reconstruction and ``_fun_branch`` pass their
    exclusions as ``tried``.

    Two fast paths stay, because most nodes sit at budget 2 or less.
    At budget 1 the one element lies in every pending requirement, so the
    vertex masks of the three lowest pending ones, less ``tried``, leave
    the only candidates, usually three or fewer, and each is checked against
    all of ``need``; the lowest that passes is the one a scan of the lowest
    requirement would return. Scanning the lowest requirement alone makes
    the ``exact`` benchmark take about 1.5 times as long. Budget 2 runs the
    same test inline on what each first element leaves instead of recursing,
    which saves about 4% of ``exact``.
    """
    if not need:
        return 0
    if budget <= 0:
        return None
    low = need & -need
    cand = reqs[low.bit_length() - 1] & ~tried
    if budget == 1:
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
    if budget == 2:
        # one element of the rest must hit all of it: budget 1 inline
        while cand:
            b = cand & -cand
            rest = need & ~cover[b.bit_length() - 1]
            if not rest:
                return b
            low = rest & -rest
            cand2 = reqs[low.bit_length() - 1] & ~tried
            more = rest ^ low
            if more and cand2:
                low = more & -more
                cand2 &= reqs[low.bit_length() - 1]
                more ^= low
                if more and cand2:
                    low = more & -more
                    cand2 &= reqs[low.bit_length() - 1]
            while cand2:
                b2 = cand2 & -cand2
                if not rest & ~cover[b2.bit_length() - 1]:
                    return b | b2
                cand2 ^= b2
            tried |= b
            cand ^= b
        return None
    while cand:
        b = cand & -cand
        sub = _hit(need & ~cover[b.bit_length() - 1], budget - 1, reqs, cover, tried)
        if sub is not None:
            return sub | b
        tried |= b
        cand ^= b
    return None


def _min_args(rows, universe: int, y: int) -> tuple[int, list[int]]:
    """Exact minimum argument set for y inside ``universe``.

    Returns (k, ids) with ids the lexicographically least minimum set
    (ordered as a sorted id list), matching naive subset enumeration.
    """
    need, reqs, cover = _arg_system(rows, universe, y)
    if not need:
        return 0, []
    others = universe & ~(1 << y)
    nbrs = rows[y] & others
    # N(y) itself is an argument set, so the search stops by this budget
    for k in range(1, min(nbrs.bit_count(), (others & ~nbrs).bit_count()) + 1):
        known = _hit(need, k, reqs, cover)
        if known is not None:
            break
    # slot by slot, take the least e above the last choice that a set of the
    # remaining size above e completes. ``known`` is always such a completion,
    # so its least element needs no test, and an element hitting nothing
    # pending would make a smaller set, so it is skipped.
    chosen = []
    e = 0
    for budget in range(k - 1, -1, -1):
        first = (known & -known).bit_length() - 1
        while e < first:
            c = cover[e]
            if c & need:
                sub = _hit(need & ~c, budget, reqs, cover, (2 << e) - 1)
                if sub is not None:
                    known = sub | 1 << e
                    break
            e += 1
        chosen.append(e)
        need &= ~cover[e]
        known &= ~(1 << e)
        e += 1
    return k, chosen


def _witness_from_args(g: Graph, y: int, args: list[int], origin: str) -> Witness:
    arity = len(args)
    if arity > TABLE_ARITY_LIMIT:
        raise SizeLimitError(
            f"witness table would need 2^{arity} entries "
            f"(limit 2^{TABLE_ARITY_LIMIT})"
        )
    args_t = tuple(args)
    skip = (1 << y) | mask_of(args_t, g.n)
    table = 0
    trow = g.rows[y]
    for m, c in _profile_classes(g.rows, args_t, g.full_mask & ~skip):
        if c & trow:
            table |= 1 << m
    return _emit(g, Witness(y, args_t, table, origin))


def fun_vertex(g: Graph, y: int) -> tuple[int, Witness]:
    """Exact functionality of y with a validated minimal witness."""
    _check_vertex(g, y, "y")
    k, args = _min_args(g.rows, g.full_mask, y)
    return k, _witness_from_args(g, y, args, "exhaustive")


def fun_vertex_naive(g: Graph, y: int) -> tuple[int, tuple[int, ...]]:
    """Oracle twin of fun_vertex: plain subset enumeration by size."""
    _check_vertex(g, y, "y")
    others = [v for v in range(g.n) if v != y]
    for k in range(len(others) + 1):
        for combo in itertools.combinations(others, k):
            ok, _ = is_function_of(g, y, combo)
            if ok:
                return k, combo
    raise AssertionError("unreachable: y is always a function of all others")


def _fun_floor(best: int) -> int:
    # a vertex is a function of its neighbours and of its non-neighbours,
    # and in a k-set one of the two has at most (k - 1) // 2 vertices
    return 2 * best + 3


def _fun_branch(rows, mask: int, best: int) -> tuple[int, int]:
    """One step of the fun search: (b, B) with b = max(best, fun(mask)) and B
    a subset of ``mask`` such that every T with B <= T <= mask has fun(T) <= b.

    A witness (v, A) of v inside ``mask`` stays valid in every T holding
    A + v, because removing vertices outside A + v only removes conditions.
    B is A + v for the first witness found with |A| <= best, trying in order
    a vertex with its neighbours or its non-neighbours, a pair x, y with
    sd < best (x is a function of y and the vertices distinguishing them,
    so |A| = sd + 1), and a hitting set of at most ``best`` vertices. Failing
    all of those, fun(mask) > best and B is a minimum witness of ``mask``.
    ``mask`` holds at least 2 * ``best`` + 3 vertices (see ``_fun_floor``).
    """
    m = mask.bit_count()
    for v in bit_ids(mask):
        nbrs = rows[v] & mask
        deg = nbrs.bit_count()
        if deg <= best:
            return best, nbrs | 1 << v
        if m - 1 - deg <= best:
            return best, mask & ~nbrs
    if best:  # a pair witness has at least one argument
        d, x, y = _min_pair_sd(rows, mask, best - 1)
        if d < best:
            return best, 1 << x | 1 << y
    systems = []
    for v in bit_ids(mask):
        need, reqs, cover = _arg_system(rows, mask, v)
        args = _hit(need, best, reqs, cover)
        if args is not None:
            return best, args | 1 << v
        systems.append((v, need, reqs, cover))
    # every vertex needs more than `best` arguments: find the exact minimum
    low = None
    for v, need, reqs, cover in systems:
        deg = (rows[v] & mask).bit_count()
        hi = min(deg, m - 1 - deg)
        if low is not None:
            hi = min(hi, low - 1)
        for b in range(best + 1, hi + 1):
            args = _hit(need, b, reqs, cover)
            if args is not None:
                low, branch = b, args | 1 << v
                break
    if low is None:
        raise AssertionError("subset minimum escaped its degree bound")
    return low, branch


def fun_graph(g: Graph, max_n: int | None = None) -> int:
    """Max over nonempty induced subgraphs of the min vertex functionality.

    Exact by branching on witnesses: at a subset S, ``_fun_branch`` gives a
    set B such that no subset holding all of B beats the best value so far.
    The search carries a forced set F with S, splits the subsets that miss
    a vertex of B - F by the first one they miss, and drops the subtree when
    B lies inside F (see ``_branch_search``).
    """
    limit = _resolve_limit(max_n, FUN_MAX_N_DEFAULT)
    if g.n > limit:
        raise SizeLimitError(
            f"fun_graph guard is {limit} vertices (got {g.n}); "
            "raise max_n or FUNBOX_MAX_N"
        )
    return _branch_search(g.full_mask, partial(_fun_branch, g.rows), _fun_floor)


# ---------------------------------------------------------------------------
# pair witnesses (distinguisher / non-distinguisher constructions)
# ---------------------------------------------------------------------------

def _identity_table(k: int) -> int:
    # 0b...1010: bit m set iff m is odd (prediction = bit of args[0])
    return ((1 << (1 << k)) - 1) // 3 * 2


def pair_witness(g: Graph, x: int, y: int, mode: str) -> Witness:
    """Witness that x is a function of y plus the (non)distinguishing set.

    mode="distinguishers": args are y plus every vertex adjacent to exactly
    one of x, y; table is the identity on y's bit. mode="nondistinguishers":
    args are y plus every vertex adjacent to both or neither; table is the
    negation of y's bit.
    """
    _check_vertex(g, x, "x")
    _check_vertex(g, y, "y")
    if x == y:
        raise GraphError("pair_witness requires two distinct vertices")
    rest = g.full_mask & ~(1 << x) & ~(1 << y)
    diff = (g.rows[x] ^ g.rows[y]) & rest
    if mode == "distinguishers":
        zmask = diff
    elif mode == "nondistinguishers":
        zmask = rest & ~diff
    else:
        raise GraphError(f"unknown pair_witness mode: {mode!r}")
    args = [y] + list(bit_ids(zmask))
    k = len(args)
    if k > TABLE_ARITY_LIMIT:
        raise SizeLimitError(
            f"witness table would need 2^{k} entries (limit 2^{TABLE_ARITY_LIMIT})"
        )
    table = _identity_table(k)
    if mode == "nondistinguishers":
        table = ~table & ((1 << (1 << k)) - 1)
    return _emit(g, Witness(x, tuple(args), table, "pair-" + mode))


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureReport:
    twins: tuple[tuple[int, int], ...]
    anti_twins: tuple[tuple[int, int], ...]
    triangle_free: bool
    k2p_free: bool
    threshold: bool
    p: int


def _cached_triangle_free(g: Graph) -> bool:
    if "triangle_free" not in g._cache:
        ok = True
        for u in range(g.n):
            row = g.rows[u]
            for v in bit_ids(row >> (u + 1) << (u + 1)):
                if row & g.rows[v]:
                    ok = False
                    break
            if not ok:
                break
        g._cache["triangle_free"] = ok
    return g._cache["triangle_free"]


def _k2p_free(rows, p: int) -> bool:
    """Whether no two vertices have ``p`` or more common neighbours.

    For each u, the rows of u's neighbours, without u, go into saturating
    bit-sliced counters: once a row is added, bit v of ``level[i]`` is set
    iff at least i + 1 of the rows added so far hold v, so v shares that
    many neighbours with u. The scan stops at the first bit of the top level.
    """
    for u, ru in enumerate(rows):
        keep = ~(1 << u)
        level = [0] * p
        for w in bit_ids(ru):
            r = rows[w] & keep
            for i in range(p - 1, 0, -1):
                level[i] |= level[i - 1] & r
            level[0] |= r
            if level[-1]:
                return False
    return True


def _cached_k2p_free(g: Graph, p: int) -> bool:
    key = ("k2p_free", p)
    if key not in g._cache:
        g._cache[key] = _k2p_free(g.rows, p)
    return g._cache[key]


def _cached_degree_bounds(g: Graph) -> tuple[int, int]:
    if "deg_bounds" not in g._cache:
        degs = [r.bit_count() for r in g.rows]
        g._cache["deg_bounds"] = (min(degs), max(degs)) if degs else (0, 0)
    return g._cache["deg_bounds"]


def is_threshold(g: Graph) -> bool:
    """Peel isolated/dominating vertices; threshold iff the graph empties."""
    mask = g.full_mask
    size = g.n
    while size > 0:
        found = None
        for v in bit_ids(mask):
            d = (g.rows[v] & mask).bit_count()
            if d == 0 or d == size - 1:
                found = v
                break
        if found is None:
            return False
        mask &= ~(1 << found)
        size -= 1
    return True


def structure_scan(g: Graph, p: int) -> StructureReport:
    """Twins, anti-twins, triangle-freeness, K_{2,p}-freeness, thresholdness."""
    if p < 2:
        raise GraphError("K_{2,p} scan requires p >= 2")
    twins = []
    anti = []
    full = g.full_mask
    for u in range(g.n):
        for v in range(u + 1, g.n):
            keep = full & ~(1 << u) & ~(1 << v)
            ru = g.rows[u] & keep
            rv = g.rows[v] & keep
            if ru == rv:
                twins.append((u, v))
            if ru ^ rv == keep:
                anti.append((u, v))
    return StructureReport(
        twins=tuple(twins),
        anti_twins=tuple(anti),
        triangle_free=_cached_triangle_free(g),
        k2p_free=_cached_k2p_free(g, p),
        threshold=is_threshold(g),
        p=p,
    )


# ---------------------------------------------------------------------------
# half-graph / ABC recognition
# ---------------------------------------------------------------------------

def recover_half_graph_orders(
    g: Graph, xs: Iterable[int], ys: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Recover orders realizing x_i ~ y_j iff i < j on the X-Y edges.

    Only edges between the two sets are considered. The neighborhood sizes
    force the orders, so the result is unique; a non-realizable pattern
    raises with a violating pair in the message.
    """
    x_ids = sorted(set(xs))
    y_ids = sorted(set(ys))
    if not x_ids or len(x_ids) != len(y_ids):
        raise GraphError(
            f"half-graph sides must be nonempty and equal-sized "
            f"(got {len(x_ids)} and {len(y_ids)})"
        )
    m = len(x_ids)
    x_mask = mask_of(x_ids, g.n)
    y_mask = mask_of(y_ids, g.n)
    if x_mask & y_mask:
        raise GraphError("half-graph sides must be disjoint")
    x_deg = {x: (g.rows[x] & y_mask).bit_count() for x in x_ids}
    y_deg = {y: (g.rows[y] & x_mask).bit_count() for y in y_ids}
    if sorted(x_deg.values()) != list(range(m)):
        err = _degree_collision(x_deg)
        raise GraphError(
            f"not a half graph: X-side neighborhood sizes must be "
            f"{{0..{m - 1}}}, got {sorted(x_deg.values())}"
            + (f"; vertices {err} share a degree" if err else "")
        )
    order_x = sorted(x_ids, key=lambda x: -x_deg[x])
    order_y = sorted(y_ids, key=lambda y: y_deg[y])
    # the i-th x must see exactly the y's after position i of order_y
    after = [0] * m
    for i in range(m - 1, 0, -1):
        after[i - 1] = after[i] | 1 << order_y[i]
    for i, x in enumerate(order_x):
        if g.rows[x] & y_mask != after[i]:
            y = next(
                y for j, y in enumerate(order_y) if g.has_edge(x, y) != (i < j)
            )
            raise GraphError(
                f"not a half graph: pair ({x},{y}) violates the order rule"
            )
    return order_x, order_y


def _degree_collision(deg: dict[int, int]):
    seen = {}
    for v, d in deg.items():
        if d in seen:
            return (seen[d], v)
        seen[d] = v
    return None


@dataclass(frozen=True)
class AbcReport:
    """Recovered structure of a valid A/B/C clique partition."""

    n: int
    order_a: tuple[int, ...]
    order_b_ab: tuple[int, ...]
    order_b_bc: tuple[int, ...]
    order_c: tuple[int, ...]


def check_abc_partition(
    g: Graph, a: Iterable[int], b: Iterable[int], c: Iterable[int]
) -> AbcReport:
    """Verify the three-clique half-graph structure and recover all orders."""
    a_ids = sorted(set(a))
    b_ids = sorted(set(b))
    c_ids = sorted(set(c))
    n = len(a_ids)
    if not (len(b_ids) == len(c_ids) == n) or n == 0:
        raise GraphError(
            f"parts must be nonempty and equal-sized, got "
            f"|A|={len(a_ids)}, |B|={len(b_ids)}, |C|={len(c_ids)}"
        )
    masks = [mask_of(ids, g.n) for ids in (a_ids, b_ids, c_ids)]
    if masks[0] & masks[1] or masks[0] & masks[2] or masks[1] & masks[2]:
        raise GraphError("parts must be pairwise disjoint")
    if masks[0] | masks[1] | masks[2] != g.full_mask:
        raise GraphError("parts must cover every vertex")
    for name, ids, mask in zip("ABC", (a_ids, b_ids, c_ids), masks):
        for u in ids:
            missing = mask & ~g.rows[u] & ~(1 << u)
            if missing:
                v = next(bit_ids(missing))
                raise GraphError(f"{name} is not a clique: ({u},{v}) missing")
    for u in a_ids:
        stray = g.rows[u] & masks[2]
        if stray:
            v = next(bit_ids(stray))
            raise GraphError(f"forbidden A-C edge ({u},{v})")
    order_a, order_b_ab = recover_half_graph_orders(g, a_ids, b_ids)
    order_b_bc, order_c = recover_half_graph_orders(g, b_ids, c_ids)
    return AbcReport(
        n=n,
        order_a=tuple(order_a),
        order_b_ab=tuple(order_b_ab),
        order_b_bc=tuple(order_b_bc),
        order_c=tuple(order_c),
    )


# ---------------------------------------------------------------------------
# refutation on sparse regular-ish graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefutationPair:
    """Pair (u, w) with equal all-zero profile on S but split adjacency to x."""

    u: int
    w: int


def refute_function(
    g: Graph, x: int, args: Iterable[int], k: int, p: int
) -> RefutationPair:
    """Produce a pair proving x is not a function of the k-set ``args``.

    Requires the graph to be triangle-free, K_{2,p}-free, with min degree
    >= kp+1 and max degree <= (n-k-2)/(k+1); violated premises are reported
    together and are a legal outcome, not a bug.
    """
    _check_vertex(g, x, "x")
    s_ids = sorted(set(args))
    s_mask = mask_of(s_ids, g.n)
    if s_mask >> x & 1:
        raise GraphError("x may not appear in the argument set")
    if len(s_ids) != k:
        raise GraphError(f"expected |S| = {k}, got {len(s_ids)}")
    if p < 2:
        raise GraphError("refutation premises require p >= 2")
    violations = []
    if not _cached_triangle_free(g):
        violations.append("graph contains a triangle")
    if not _cached_k2p_free(g, p):
        violations.append(f"graph contains a K_{{2,{p}}} subgraph")
    dmin, dmax = _cached_degree_bounds(g)
    if dmin < k * p + 1:
        violations.append(f"min degree {dmin} < kp+1 = {k * p + 1}")
    if dmax * (k + 1) > g.n - k - 2:
        violations.append(
            f"max degree {dmax} > (n-k-2)/(k+1) = {(g.n - k - 2)}/{k + 1}"
        )
    if violations:
        raise PremiseViolation(violations)
    n_s = 0
    for s in s_ids:
        n_s |= g.rows[s]
    u_mask = g.rows[x] & ~s_mask & ~n_s
    w_mask = g.full_mask & ~(g.rows[x] | (1 << x) | s_mask | n_s)
    if not u_mask or not w_mask:
        raise AssertionError("premises hold but no refutation pair exists")
    return RefutationPair(u=next(bit_ids(u_mask)), w=next(bit_ids(w_mask)))
