"""Labeled simple graphs with bit-row adjacency.

Vertices are dense 0-based ids. Each adjacency row is a Python int used as a
bit vector: bit ``v`` of ``rows[u]`` is 1 iff ``u`` and ``v`` are adjacent.
All algorithms in the package work on these rows with bitwise kernels, and
one transpose, ``_columns``, serves every kernel that needs a matrix's
columns: ``induced_subgraph``, the hitting-set system and the point-box
builders. ``Graph`` validation checks symmetry in ``_rows_symmetric``,
which compares the rows' text with its transpose or walks the set bits; it
calls ``_columns`` only on dense rows above ``_TEXT_MAX_N`` vertices, and
``Graph`` calls it only to name an asymmetric pair.

Every file reader checks its JSON with the shape helpers defined here:
``_json_object``, ``_json_list``, ``_json_pairs``, ``_json_int`` and
``_json_labels``, which raise ``GraphError`` with a one-line message, and
``_json_count``, which caps a file's vertices or list entries with
``SizeLimitError``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Any bad input: a graph, a file, a campaign config or a request."""


class SizeLimitError(RuntimeError):
    """An input or a request exceeds a size limit: an exact search's guard,
    the entry cap of a file or config (``_json_count``), a built family's
    size rule (``constructions.check_size``) or the witness arity cap."""


# The largest vertex count a generator writes (``hypercube(16)`` and the
# H^n_i cap), and the most vertices, intervals, points or boxes a file may hold.
MAX_VERTICES = 1 << 16


def bit_ids(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int], n: int) -> int:
    """Bit mask for a set of vertex ids, validated against 0..n-1."""
    mask = 0
    for v in ids:
        if not 0 <= v < n:
            raise GraphError(f"vertex id {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


# Comparing the text costs about as much as walking n*n/32 + 2n set bits
# (timed on G(n, p), n = 3..2000), so sparser rows are walked; _TEXT_MAX_N
# bounds each text a transpose holds to _TEXT_MAX_N**2 characters.
_TEXT_MAX_N = 2048


def _dense(rows, width: int) -> bool:
    """Whether ``rows`` hold enough set bits that text beats a bit walk."""
    return sum(map(int.bit_count, rows)) * 32 > len(rows) * (width + 64)


def _columns(rows: Sequence[int], width: int) -> list[int]:
    """Transpose of a bit matrix: bit i of ``cols[e]`` is bit e of ``rows[i]``.

    ``rows`` hold bits in 0..width-1 only. Sparse rows walk their set bits.
    Dense rows go through text, one band of rows i0.. at a time: the band's
    rows, last first, written as width-character binary lines make a text
    whose slice ``text[j::width]`` is column width-1-j read from bit i0 up.
    Bands hold ``_TEXT_MAX_N**2 // width`` rows.
    """
    cols = [0] * width
    if _dense(rows, width):
        band = max(1, _TEXT_MAX_N ** 2 // width)
        line = f"0{width}b"
        for i0 in range(0, len(rows), band):
            text = "".join([format(row, line) for row in reversed(rows[i0 : i0 + band])])
            for j in range(width):
                cols[width - 1 - j] |= int(text[j::width], 2) << i0
        return cols
    for i, row in enumerate(rows):
        bit = 1 << i
        for e in bit_ids(row):
            cols[e] |= bit
    return cols


def _rows_symmetric(rows: tuple[int, ...]) -> bool:
    """Whether in-range, irreflexive bit rows equal their transpose.

    Dense rows are compared with their columns: for n <= ``_TEXT_MAX_N`` as
    one text, the column slices of the rows' text (see ``_columns``) joined,
    and above that as ``_columns``. Sparse rows walk the bits above the
    diagonal instead: each needs its mirror below, and the mirrors are
    distinct, so the rows are symmetric exactly when the mirrors are all the
    bits below the diagonal.
    """
    n = len(rows)
    if _dense(rows, n):
        if n > _TEXT_MAX_N:
            return _columns(rows, n) == list(rows)
        line = f"0{n}b"
        text = "".join([format(row, line) for row in reversed(rows)])
        return "".join([text[j::n] for j in range(n)]) == text
    upper = 0
    for u, row in enumerate(rows):
        above = row >> u << u
        for v in bit_ids(above):
            if not rows[v] >> u & 1:
                return False
        upper += above.bit_count()
    return 2 * upper == sum(map(int.bit_count, rows))


class Graph:
    """Immutable simple graph: symmetric, irreflexive bit rows.

    Construction validates the rows: there must be ``n`` of them, each with
    bits only in 0..n-1, none on the diagonal, and together equal to their
    transpose. Symmetry is checked on whole rows (see ``_rows_symmetric``);
    the first failure raises ``GraphError``, naming the lowest asymmetric
    pair ``u < v``.

    Labels are per-vertex metadata (opaque strings) and never influence any
    algorithm. Instances must not be mutated after construction.
    """

    __slots__ = ("n", "rows", "labels")

    def __init__(self, n: int, rows: Iterable[int], labels=None):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        rows = tuple(rows)
        if len(rows) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(rows)}")
        for u, row in enumerate(rows):
            if row >> n:
                raise GraphError(f"row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise GraphError(f"self-loop at vertex {u}")
        if not _rows_symmetric(rows):
            # the first row that differs from its column is the lower end u
            # of the lowest one-sided pair, and its lowest differing bit is v
            diffs = [row ^ col for row, col in zip(rows, _columns(rows, n))]
            u = next(u for u, diff in enumerate(diffs) if diff)
            v = (diffs[u] & -diffs[u]).bit_length() - 1
            raise GraphError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.rows = rows
        self.labels = dict(labels) if labels else None

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def neighbors(self, u: int) -> list[int]:
        return list(bit_ids(self.rows[u]))

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, row in enumerate(self.rows):
            for v in bit_ids(row >> (u + 1) << (u + 1)):
                yield (u, v)

    def label(self, u: int):
        return self.labels.get(u) if self.labels else None

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]], labels=None) -> Graph:
    """Build a graph from undirected edge pairs; duplicates are merged."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, labels)


def induced_subgraph(g: Graph, subset: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``subset`` plus the old-id -> new-id map.

    New ids preserve the relative order of the old ids. The kept rows, masked
    to the kept ids, have the new rows as their kept columns: by symmetry,
    bit i of column ``o`` is set iff the i-th kept vertex is adjacent to ``o``.
    """
    old_ids = sorted(set(subset))
    if not old_ids:
        raise GraphError("induced subgraph requires a nonempty vertex set")
    kept = mask_of(old_ids, g.n)
    cols = _columns([g.rows[o] & kept for o in old_ids], g.n)
    mapping = {old: new for new, old in enumerate(old_ids)}
    labels = None
    if g.labels:
        labels = {mapping[o]: g.labels[o] for o in old_ids if o in g.labels}
    return Graph(len(old_ids), [cols[o] for o in old_ids], labels), mapping


def equal_labeled(g1: Graph, g2: Graph) -> bool:
    """Identity-on-ids equality: same n and identical adjacency rows."""
    return g1.n == g2.n and g1.rows == g2.rows


def graph_to_json(g: Graph) -> dict:
    data = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.labels:
        data["labels"] = {str(v): s for v, s in sorted(g.labels.items())}
    return data


def _json_object(data, what: str, keys: Sequence[str] = ()) -> dict:
    """``data`` if it is an object holding every key of ``keys``."""
    if not isinstance(data, dict):
        raise GraphError(f"{what} must be an object")
    for key in keys:
        if key not in data:
            raise GraphError(f"{what} is missing key {key!r}")
    return data


def _json_count(count: int, where: str, what: str = "entries") -> int:
    """``count`` if a file may hold that many ``what``: at most MAX_VERTICES."""
    if count > MAX_VERTICES:
        raise SizeLimitError(f"{where} has {count} {what}, more than the limit {MAX_VERTICES}")
    return count


def _json_list(value, where: str, capped=False):
    """``value`` if it is a list; ``capped`` also bounds its length (``_json_count``)."""
    if not isinstance(value, (list, tuple)):
        raise GraphError(f"{where} must be a list")
    if capped:
        _json_count(len(value), where)
    return value


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return value


def _json_pairs(items, where: str, what: str, capped=False) -> Iterator[tuple[int, int]]:
    """Yield the entries of the list ``items`` (named ``where``) as integer
    pairs; ``what`` names one entry in the error messages, and ``capped``
    bounds their number (see ``_json_list``)."""
    coordinate = f"{what} coordinate"
    for item in _json_list(items, where, capped):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise GraphError(f"{what} {item!r} must be a pair of integers")
        a, b = item
        yield _json_int(a, coordinate), _json_int(b, coordinate)


def graph_from_json(data: dict) -> Graph:
    data = _json_object(data, "graph JSON", ("n", "edges"))
    n = _json_count(_json_int(data["n"], "'n'"), "graph JSON", "vertices")
    rows = [0] * n
    for u, v in _json_pairs(data["edges"], "graph JSON 'edges'", "edge"):
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if rows[u] >> v & 1:
            raise GraphError(f"duplicate edge ({u},{v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows, _json_labels(data, "graph", n))


def _json_labels(data: dict, what: str, n: int) -> dict[int, str] | None:
    """Optional ``data["labels"]``, an object keyed by ids 0..n-1, as {id: label}."""
    given = data.get("labels")
    if given is None or given == {}:
        return None
    labels = {}
    for key, label in _json_object(given, f"{what} JSON 'labels'").items():
        # keys as graph_to_json writes them: decimal ids with no sign, space,
        # underscore or leading zero, and no longer than n (so int() is cheap)
        if not (
            isinstance(key, str)
            and key.isascii()
            and key.isdigit()
            and len(key) <= len(str(n))
            and str(int(key)) == key
        ):
            raise GraphError(f"{what} JSON 'labels' key {key!r} is not a vertex id")
        v = int(key)
        if v >= n:
            raise GraphError(f"{what} JSON has a label for unknown id {v}")
        if not isinstance(label, str):
            raise GraphError(
                f"{what} JSON 'labels' entry {key!r} must be a string, got {label!r}"
            )
        labels[v] = label
    return labels
