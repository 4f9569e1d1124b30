"""Immutable bitset-backed graphs with graph6 and edge-list codecs.

Vertices are 0..n-1 and every vertex set in this package is a plain int
bitmask (bit v set means vertex v is in the set).  Adjacency rows are the
same kind of mask, so n is capped at 64 to keep every row a single word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_VERTICES = 64

_G6_HEADER = ">>graph6<<"
_G6_BYTES = bytes(range(63, 127))  # the printable bytes graph6 uses


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list text."""


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bit_members(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted list of vertex indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; adj[v] is the neighbor bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphFormatError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise GraphFormatError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphFormatError(f"adjacency row {v} references vertices >= {self.n}")
            if row >> v & 1:
                raise GraphFormatError(f"self-loop at vertex {v}")
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise GraphFormatError(f"asymmetric adjacency between {u} and {v}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in iter_bits(self.adj[v]):
                if u < v:
                    yield (u, v)


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphFormatError("cycles need at least 3 vertices")
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def _trusted(n: int, adj: tuple[int, ...]) -> Graph:
    """A Graph built without validation, for outputs valid by construction.

    Only the constructions below, parse_graph6 included, and the wing
    families use it: the graph6 parser checks every byte, the size and the
    padding itself, and sets both bits of each pair it reads.  Graph(...),
    from_edges and parse_edge_list still validate.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return _trusted(g.n, tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)))


def induced_subgraph(g: Graph, s: int | Iterable[int]) -> Graph:
    """Induced subgraph on the vertex set s, relabeled 0..|s|-1 in index order.

    Every row is masked to s.  Then each run of consecutive dropped
    vertices, the highest run first, loses its rows, and every row left
    loses its bits: the bits above the run shift down over it.  That is
    one pass over the rows per run.
    """
    mask = s if isinstance(s, int) else mask_of(s)
    full = g.vertex_mask
    if mask & ~full:
        raise GraphFormatError("vertex set not contained in the graph")
    rows = [row & mask for row in g.adj]
    drop = full & ~mask
    while drop:
        top = drop.bit_length()  # one past the run's highest vertex
        low = (~drop & ((1 << top) - 1)).bit_length()  # the run's lowest vertex
        del rows[low:top]
        keep = (1 << low) - 1
        rows = [r & keep | r >> top - low & ~keep for r in rows]
        drop &= keep
    return _trusted(len(rows), tuple(rows))


def add_vertex(g: Graph, nbrs: int) -> Graph:
    """g plus a new vertex g.n whose neighbors are the vertex set nbrs."""
    if nbrs & ~g.vertex_mask:
        raise GraphFormatError("neighborhood not contained in the graph")
    if g.n == MAX_VERTICES:
        raise GraphFormatError(f"vertex count {g.n + 1} outside 0..{MAX_VERTICES}")
    bit = 1 << g.n
    rows = tuple(row | bit if nbrs >> v & 1 else row for v, row in enumerate(g.adj))
    return _trusted(g.n + 1, rows + (nbrs,))


def permute(g: Graph, perm: Iterable[int]) -> Graph:
    """Relabel so that vertex v becomes perm[v]."""
    p = tuple(perm)
    if sorted(p) != list(range(g.n)):
        raise GraphFormatError("not a permutation of the vertex range")
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        for u in iter_bits(g.adj[v]):
            row |= 1 << p[u]
        adj[p[v]] = row
    return _trusted(g.n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6: 6-bit printable encoding of the upper triangle, column-major.

def _g6_size_header(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    # 18-bit long form covers everything up to MAX_VERTICES
    return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])


def _g6_parse_size(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise GraphFormatError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] == 126:
        raise GraphFormatError("graph6 size beyond supported range")
    if len(data) < 4:
        raise GraphFormatError("truncated graph6 size header")
    n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    return n, data[4:]


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string (optional >>graph6<< header allowed)."""
    if isinstance(text, str):
        try:
            data = text.strip().encode("ascii")
        except UnicodeEncodeError as exc:
            raise GraphFormatError("graph6 must be printable ASCII") from exc
    else:
        data = bytes(text).strip()
    if data.startswith(_G6_HEADER.encode()):
        data = data[len(_G6_HEADER):]
    bad = data.translate(None, _G6_BYTES)
    if bad:
        raise GraphFormatError(f"byte {bad[0]} outside graph6 range")
    n, body = _g6_parse_size(data)
    if n < 0 or n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"expected {need} payload bytes for n={n}, got {len(body)}")
    # the whole payload as one int, the pair (0, 1) in its top bit; column
    # j is the next j-bit field below, with the pair (0, j) at its top
    code = 0
    for b in body:
        code = code << 6 | b - 63
    pad = need * 6 - nbits
    adj = [0] * n
    pos = need * 6
    for j in range(1, n):
        pos -= j
        col = code >> pos & ((1 << j) - 1)
        row = 0
        while col:
            low = col & -col
            col ^= low
            i = j - low.bit_length()
            adj[i] |= 1 << j
            row |= 1 << i
        adj[j] = row
    if code & ((1 << pad) - 1):
        raise GraphFormatError("nonzero padding bits")
    return _trusted(n, tuple(adj))


def graph6_of_code(n: int, code: int) -> bytes:
    """graph6 bytes of the graph on n vertices with upper-triangle bits code.

    code holds the n(n-1)/2 pairs column by column, in graph6 order, with
    the pair (0, 1) in its most significant bit.
    """
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    code <<= need * 6 - nbits
    return _g6_size_header(n) + bytes(
        (code >> 6 * k & 63) + 63 for k in range(need - 1, -1, -1))


def emit_graph6(g: Graph) -> str:
    code = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            code = code << 1 | (col >> i & 1)
    return graph6_of_code(g.n, code).decode("ascii")


# ---------------------------------------------------------------------------
# edge-list text: first line "n m", then m lines "u v" (0-based).

def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise GraphFormatError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphFormatError("header must be 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphFormatError("non-numeric header") from exc
    if n < 0 or n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if len(lines) - 1 != m:
        raise GraphFormatError(f"declared {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphFormatError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"non-numeric edge line: {ln!r}") from exc
        edges.append((u, v))
    g = from_edges(n, edges)
    if g.m != m:
        raise GraphFormatError(f"declared {m} edges, found {g.m} distinct")
    return g


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
