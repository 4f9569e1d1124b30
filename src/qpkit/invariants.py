"""Exact graph invariants: cliques, independence, coloring, structure tests.

Everything here is exhaustive and deterministic.  Desk scale is assumed
(n around 16 or less); there are no heuristics and no randomness.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graphs import Graph, bit_members, complement, iter_bits

DEFAULT_PERFECTION_LIMIT = 10


class PerfectionLimitError(RuntimeError):
    """Perfection test requested past the configured vertex limit."""


def maximal_cliques(g: Graph) -> Iterator[int]:
    """Bron-Kerbosch with pivoting; yields maximal clique masks."""
    adj = g.adj

    def expand(r: int, p: int, x: int) -> Iterator[int]:
        if p == 0 and x == 0:
            yield r
            return
        # pivot: vertex of p|x covering the most of p
        pivot, cover = -1, -1
        for u in iter_bits(p | x):
            c = (p & adj[u]).bit_count()
            if c > cover:
                pivot, cover = u, c
        rest = p & ~adj[pivot]
        for v in iter_bits(rest):
            yield from expand(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    if g.n:
        yield from expand(0, g.vertex_mask, 0)


def clique_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(c.bit_count() for c in maximal_cliques(g))


def maximum_cliques(g: Graph) -> list[int]:
    """All cliques of maximum size, as masks sorted ascending.

    Every maximum clique is maximal, so filtering the maximal cliques by
    size is exhaustive.  The empty graph has no maximum cliques.
    """
    if g.n == 0:
        return []
    cliques = list(maximal_cliques(g))
    w = max(c.bit_count() for c in cliques)
    return sorted(c for c in cliques if c.bit_count() == w)


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def maximum_independent_sets(g: Graph) -> list[int]:
    return maximum_cliques(complement(g))


def greedy_coloring_bound(g: Graph) -> int:
    """Largest-first greedy coloring; an upper bound for the chromatic number."""
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    colors = [-1] * g.n
    used = 0
    for v in order:
        taken = 0
        for u in iter_bits(g.adj[v]):
            if colors[u] >= 0:
                taken |= 1 << colors[u]
        c = 0
        while taken >> c & 1:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
    return used


def _k_colorable(g: Graph, k: int) -> bool:
    n = g.n
    adj = g.adj
    colors = [-1] * n
    seed = bit_members(maximum_cliques(g)[0])
    if len(seed) > k:
        return False
    for i, v in enumerate(seed):
        colors[v] = i

    def pick() -> int:
        best, best_rank = -1, (-1, -1, 0)
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = 0
            for u in iter_bits(adj[v]):
                if colors[u] >= 0:
                    sat |= 1 << colors[u]
            rank = (sat.bit_count(), g.degree(v), -v)
            if rank > best_rank:
                best, best_rank = v, rank
        return best

    def rec(done: int, used: int) -> bool:
        if done == n:
            return True
        v = pick()
        taken = 0
        for u in iter_bits(adj[v]):
            if colors[u] >= 0:
                taken |= 1 << colors[u]
        for c in range(min(used + 1, k)):
            if taken >> c & 1:
                continue
            colors[v] = c
            if rec(done + 1, used + (1 if c == used else 0)):
                return True
            colors[v] = -1
        return False

    return rec(len(seed), len(seed))


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by iterated k-colorability search.

    The search seeds each test with a maximum clique (its vertices take
    distinct colors in any proper coloring) and breaks color symmetry by
    allowing at most one fresh color per step.
    """
    if g.n == 0:
        return 0
    low = clique_number(g)
    high = greedy_coloring_bound(g)
    for k in range(low, high):
        if _k_colorable(g, k):
            return k
    return high


class GraphInvariants(NamedTuple):
    omega: int
    alpha: int
    chi: int


def invariant_triple(g: Graph) -> GraphInvariants:
    return GraphInvariants(clique_number(g), independence_number(g), chromatic_number(g))


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


def is_forest(g: Graph) -> bool:
    """True when the graph has no cycle (counts edges per component)."""
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        comp = 0
        stack = [root]
        seen |= 1 << root
        comp |= 1 << root
        edges = 0
        while stack:
            v = stack.pop()
            edges += (g.adj[v]).bit_count()
            for u in iter_bits(g.adj[v] & ~seen):
                seen |= 1 << u
                comp |= 1 << u
                stack.append(u)
        if edges // 2 != comp.bit_count() - 1:
            return False
    return True


def _biconnected_components(g: Graph) -> Iterator[int]:
    """Vertex masks of biconnected components (bridges count as components)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    timer = 0
    edge_stack: list[tuple[int, int]] = []

    def dfs(root: int) -> Iterator[int]:
        nonlocal timer
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, iter_bits(g.adj[root]))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] == -1:
                    edge_stack.append((v, u))
                    disc[u] = low[u] = timer
                    timer += 1
                    stack.append((u, v, iter_bits(g.adj[u])))
                    advanced = True
                    break
                if u != parent and disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    comp = 0
                    while edge_stack:
                        a, b = edge_stack.pop()
                        comp |= 1 << a | 1 << b
                        if (a, b) == (pv, v):
                            break
                    if comp:
                        yield comp

    for r in range(n):
        if disc[r] == -1:
            yield from dfs(r)


def is_block_graph(g: Graph) -> bool:
    """True when every biconnected component induces a complete graph."""
    for comp in _biconnected_components(g):
        for v in iter_bits(comp):
            if (comp & ~(1 << v)) & ~g.adj[v]:
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
        stack = [(p, 2, 1 << p) for p in iter_bits(ring)]
        while stack:
            last, length, blocked = stack.pop()
            for v in iter_bits(adj[last] & above & ~blocked):
                if ring >> v & 1:
                    # the cycle closed at v has length + 1 vertices
                    if length >= 4 and length % 2 == 0:
                        return True
                else:
                    stack.append((v, length + 1, blocked | adj[last]))
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
