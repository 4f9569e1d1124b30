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


@dataclass(frozen=True)
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

    Only the constructions below, parse_graph6 included, use it: the graph6
    parser checks every byte, the size and the padding itself, and sets
    both bits of each pair it reads.  Graph(...), from_edges and
    parse_edge_list still validate.
    """
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def complement(g: Graph) -> Graph:
    full = g.vertex_mask
    return _trusted(g.n, tuple((full & ~row) & ~(1 << v) for v, row in enumerate(g.adj)))


def induced_subgraph(g: Graph, s: int | Iterable[int]) -> Graph:
    """Induced subgraph on the vertex set s, relabeled 0..|s|-1 in index order."""
    mask = s if isinstance(s, int) else mask_of(s)
    if mask & ~g.vertex_mask:
        raise GraphFormatError("vertex set not contained in the graph")
    vs = bit_members(mask)
    pos = {v: i for i, v in enumerate(vs)}
    adj = [0] * len(vs)
    for i, v in enumerate(vs):
        for u in iter_bits(g.adj[v] & mask):
            adj[i] |= 1 << pos[u]
    return _trusted(len(vs), tuple(adj))


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
    for b in data:
        if not 63 <= b <= 126:
            raise GraphFormatError(f"byte {b} outside graph6 range")
    n, body = _g6_parse_size(data)
    if n < 0 or n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"expected {need} payload bytes for n={n}, got {len(body)}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            bit = (body[k // 6] - 63) >> (5 - k % 6) & 1
            if bit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    if need:
        pad = need * 6 - nbits
        if (body[-1] - 63) & ((1 << pad) - 1):
            raise GraphFormatError("nonzero padding bits")
    return _trusted(n, tuple(adj))


def emit_graph6(g: Graph) -> str:
    out = bytearray(_g6_size_header(g.n))
    acc = 0
    filled = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | (g.adj[i] >> j & 1)
            filled += 1
            if filled == 6:
                out.append(acc + 63)
                acc = 0
                filled = 0
    if filled:
        out.append((acc << (6 - filled)) + 63)
    return out.decode("ascii")


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
