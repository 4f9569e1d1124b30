"""Exact graph invariants: cliques, independence, coloring, structure tests.

Everything here is exhaustive and deterministic.  Desk scale is assumed
(n around 16 or less); there are no heuristics and no randomness.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .graphs import Graph, bit_members, complement, iter_bits, mask_of

DEFAULT_PERFECTION_LIMIT = 10


class PerfectionLimitError(RuntimeError):
    """Perfection test requested past the configured vertex limit."""


def maximal_cliques(g: Graph) -> list[int]:
    """Every maximal clique mask, once each, by Bron-Kerbosch with pivoting.

    The pivot is the first vertex of P | X, in vertex order, with the most
    neighbours in P; the branches take the vertices of P outside its
    neighbourhood in vertex order.  A plain recursion fills one list, and
    a branch that leaves P empty is settled without a call: its clique is
    maximal exactly when X is empty too.
    """
    adj = g.adj
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:  # p is never empty
        pivot_nbrs, cover = 0, -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            c = (p & nbrs).bit_count()
            if c > cover:
                pivot_nbrs, cover = nbrs, c
        rest = p & ~pivot_nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            if p & nbrs:
                expand(r | low, p & nbrs, x & nbrs)
            elif not x & nbrs:
                out.append(r | low)
            p ^= low
            x |= low

    if g.n:
        expand(0, g.vertex_mask, 0)
    return out


@lru_cache(maxsize=1 << 16)
def _maximum_cliques(g: Graph) -> tuple[int, ...]:
    """maximum_cliques as a tuple, enumerated once per process for equal graphs."""
    if g.n == 0:
        return ()
    cliques = maximal_cliques(g)
    w = max(c.bit_count() for c in cliques)
    return tuple(sorted(c for c in cliques if c.bit_count() == w))


def clique_number(g: Graph) -> int:
    cliques = _maximum_cliques(g)
    return cliques[0].bit_count() if cliques else 0


def maximum_cliques(g: Graph) -> list[int]:
    """All cliques of maximum size, as masks sorted ascending.

    Every maximum clique is maximal, so filtering the maximal cliques by
    size is exhaustive.  The empty graph has no maximum cliques.  Each
    call returns a fresh list.
    """
    return list(_maximum_cliques(g))


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def maximum_independent_sets(g: Graph) -> list[int]:
    return maximum_cliques(complement(g))


def greedy_coloring_bound(g: Graph) -> int:
    """Largest-first greedy coloring; an upper bound for the chromatic number.

    Vertices go by degree, highest first and ties in vertex order, and
    each joins the first color class, kept as a vertex mask, that holds
    none of its neighbours.
    """
    adj = g.adj
    classes: list[int] = []
    for v in sorted(range(g.n), key=lambda v: -adj[v].bit_count()):
        row = adj[v]
        for c, members in enumerate(classes):
            if not members & row:
                classes[c] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def _k_colorable(g: Graph, k: int, seed: list[int]) -> bool:
    """Whether g has a proper k-coloring extending the clique seed.

    Each color class is a vertex mask.  The next vertex is the uncolored
    one of highest saturation (the colors among its neighbours), then of
    highest degree, then the lowest; it tries the colors it misses in
    increasing order, at most one unused color among them.
    """
    adj = g.adj
    degree = [row.bit_count() for row in adj]
    classes = [1 << v for v in seed] + [0] * (k - len(seed))

    def rec(left: int, used: int) -> bool:
        if not left:
            return True
        best, best_rank, taken = -1, (-1, -1, 0), 0
        rest = left
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            row = adj[v]
            sat = 0
            for c in range(used):
                if classes[c] & row:
                    sat |= 1 << c
            rank = (sat.bit_count(), degree[v], -v)
            if rank > best_rank:
                best, best_rank, taken = v, rank, sat
        bit = 1 << best
        left ^= bit
        for c in range(min(used + 1, k)):
            if taken >> c & 1:
                continue
            classes[c] |= bit
            if rec(left, used + (c == used)):
                return True
            classes[c] ^= bit
        return False

    return rec(g.vertex_mask & ~mask_of(seed), len(seed))


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterated k-colorability search.

    The search seeds each test with one maximum clique (its vertices take
    distinct colors in any proper coloring, so k starts at its size) and
    breaks color symmetry by allowing at most one fresh color per step.
    """
    if g.n == 0:
        return 0
    seed = bit_members(_maximum_cliques(g)[0])
    high = greedy_coloring_bound(g)
    for k in range(len(seed), high):
        if _k_colorable(g, k, seed):
            return k
    return high


def optimal_colorings(g: Graph) -> Iterator[tuple[int, ...]]:
    """All proper colorings with exactly chromatic_number(g) colors.

    Color classes are canonical: vertex 0 gets color 0 and each later
    vertex may open at most the next unused color, so each partition into
    classes appears exactly once.
    """
    chi = chromatic_number(g)
    n = g.n
    if n == 0:
        yield ()
        return
    colors = [-1] * n

    def rec(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            if used == chi:
                yield tuple(colors)
            return
        taken = 0
        for u in iter_bits(g.adj[v]):
            if colors[u] >= 0:
                taken |= 1 << colors[u]
        for c in range(min(used + 1, chi)):
            if taken >> c & 1:
                continue
            colors[v] = c
            yield from rec(v + 1, used + (1 if c == used else 0))
            colors[v] = -1

    yield from rec(0, 0)


def _component_count(g: Graph) -> int:
    """Number of connected components, isolated vertices included."""
    count = 0
    left = g.vertex_mask
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            for v in iter_bits(frontier):
                reach |= g.adj[v]
            frontier = reach & ~comp
            comp |= frontier
        left &= ~comp
        count += 1
    return count


def is_forest(g: Graph) -> bool:
    """True when the graph has no cycle.

    Connecting c components takes at least n - c edges, and exactly
    n - c only when no edge closes a cycle.
    """
    return g.m == g.n - _component_count(g)


def is_block_graph(g: Graph) -> bool:
    """True when every block (biconnected component) is a clique.

    Let c be the number of components of g and q its number of maximal
    cliques.  The incidence graph of vertices and maximal cliques has
    n + q nodes, sum |Q| edges and the same c components as g, so
    sum (|Q| - 1) >= n - c always, with equality exactly when that
    incidence graph is a forest.  A budget of n - c that drops below 0
    therefore settles the answer before the scan ends.

    If the incidence graph is a forest, take a cycle of g and walk it
    through cliques that hold its edges.  The walk is closed and never
    steps straight back, and a forest has no such walk unless every
    edge of the cycle lies in one clique.  Any two vertices of a block
    lie on a common cycle, so every block is a clique.  Conversely, in a
    block graph the maximal cliques are the blocks plus the isolated
    vertices, and the incidence graph is the block-cut forest.
    """
    budget = g.n - _component_count(g)
    for q in maximal_cliques(g):
        budget -= q.bit_count() - 1
        if budget < 0:
            return False
    return True


def _has_odd_hole(g: Graph) -> bool:
    """True when g has an induced cycle of odd length at least 5.

    Every hole has a lowest vertex s.  Walked from s, a hole is a
    chordless path s, p1, ..., pk over vertices above s that meets the
    neighbourhood of s only at p1, closed by one more neighbour of s.
    So growing chordless paths from each s through vertices above s,
    and closing a path at the first neighbour of s it reaches, meets
    every hole.  blocked holds the path after s and the neighbours of
    every path vertex but the last, none of which may come next.
    """
    adj = g.adj
    for s in range(g.n):
        above = g.vertex_mask & ~((2 << s) - 1)
        ring = adj[s] & above
        stack = []
        rest = ring
        while rest:
            low = rest & -rest
            rest ^= low
            stack.append((low.bit_length() - 1, 2, low))
        while stack:
            last, length, blocked = stack.pop()
            row = adj[last]
            rest = row & above & ~blocked
            while rest:
                low = rest & -rest
                rest ^= low
                if ring & low:
                    # the cycle closed here has length + 1 vertices
                    if length >= 4 and length % 2 == 0:
                        return True
                else:
                    stack.append((low.bit_length() - 1, length + 1, blocked | row))
    return False


class PerfectionChecker:
    """Perfection test for graphs of at most limit vertices.

    By the Strong Perfect Graph Theorem (Chudnovsky, Robertson, Seymour
    and Thomas, Ann. Math. 164, 2006) a graph is perfect, every induced
    subgraph having equal clique and chromatic numbers, exactly when
    neither it nor its complement has an odd hole.
    """

    def __init__(self, limit: int = DEFAULT_PERFECTION_LIMIT) -> None:
        self.limit = limit

    def is_perfect(self, g: Graph) -> bool:
        if g.n > self.limit:
            raise PerfectionLimitError(
                f"perfection test on {g.n} vertices exceeds limit {self.limit}")
        return not _has_odd_hole(g) and not _has_odd_hole(complement(g))


def is_perfect(g: Graph, *, limit: int = DEFAULT_PERFECTION_LIMIT) -> bool:
    """True when every induced subgraph has equal clique and chromatic numbers."""
    return PerfectionChecker(limit).is_perfect(g)
