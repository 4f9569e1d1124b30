"""Independent brute-force invariants for checking classify records.

Written without qpkit's algorithms, so a wrong answer from the program is
not confirmed by the code that produced it.  A graph is a list of
neighbour bitmasks; the inputs here have at most 12 vertices.
"""

from __future__ import annotations

from itertools import combinations


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def clique_number(adj: list[int]) -> int:
    best = 0

    def grow(size: int, cand: int) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            grow(size + 1, cand & adj[v])

    grow(0, (1 << len(adj)) - 1)
    return best


def _colorable(adj: list[int], k: int) -> bool:
    order = sorted(range(len(adj)), key=lambda v: -adj[v].bit_count())
    colors = [-1] * len(adj)

    def place(i: int, used: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        taken = {colors[u] for u in range(len(adj)) if adj[v] >> u & 1}
        for c in range(min(used + 1, k)):
            if c not in taken:
                colors[v] = c
                if place(i + 1, max(used, c + 1)):
                    return True
        colors[v] = -1
        return False

    return place(0, 0)


def chromatic_number(adj: list[int]) -> int:
    k = clique_number(adj)
    while not _colorable(adj, k):
        k += 1
    return k


def _has_odd_hole(adj: list[int]) -> bool:
    n = len(adj)
    for size in range(5, n + 1, 2):
        for vs in combinations(range(n), size):
            mask = sum(1 << v for v in vs)
            if any((adj[v] & mask).bit_count() != 2 for v in vs):
                continue
            seen, frontier = 1 << vs[0], 1 << vs[0]
            while frontier:
                v = frontier.bit_length() - 1
                frontier &= ~(1 << v)
                new = adj[v] & mask & ~seen
                seen |= new
                frontier |= new
            if seen == mask:
                return True
    return False


def is_perfect(adj: list[int]) -> bool:
    """Strong perfect graph theorem: no odd hole and no odd antihole."""
    return not _has_odd_hole(adj) and not _has_odd_hole(complement(adj))
