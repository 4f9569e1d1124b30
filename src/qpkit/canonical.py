"""Canonical labelings and isomorphism-invariant keys.

Keys are the graph6 bytes of a canonically relabeled copy, so two graphs
compare equal by key exactly when they are isomorphic, and a key alone
decodes back to a concrete representative graph.

One algorithm serves every graph size: an individualization-refinement
search over ordered partitions elects the labeling with the largest
packed upper-triangle bit string (column-major, the graph6 bit order)
among the leaves it reaches.  Every leaf whose bit string ties the best
one yields an automorphism, and the search skips a branch vertex that
such automorphisms (those fixing the branch's path) map onto a vertex
already tried, as in McKay and Piperno's orbit pruning.  Skipped
subtrees are images of searched ones, so pruning never changes the
elected labeling.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, emit_graph6, iter_bits, parse_graph6, permute

CanonicalKey = bytes


def _refine(adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Equitable refinement of an ordered partition of cell masks.

    Splits are ordered by ascending neighbor count, which depends only on
    structure, so the refined partition is relabeling-invariant.
    """
    changed = True
    while changed:
        changed = False
        for splitter in list(cells):
            new_cells: list[int] = []
            for cell in cells:
                if cell.bit_count() <= 1:
                    new_cells.append(cell)
                    continue
                groups: dict[int, int] = {}
                for v in iter_bits(cell):
                    groups.setdefault((adj[v] & splitter).bit_count(), 0)
                    groups[(adj[v] & splitter).bit_count()] |= 1 << v
                if len(groups) == 1:
                    new_cells.append(cell)
                else:
                    new_cells.extend(groups[c] for c in sorted(groups))
                    changed = True
            cells = new_cells
            if changed:
                break
    return cells


def _code_of_order(adj: tuple[int, ...], order: list[int]) -> int:
    code = 0
    for j in range(1, len(order)):
        oj = adj[order[j]]
        for i in range(j):
            code = code << 1 | (oj >> order[i] & 1)
    return code


def _canonical_refined(g: Graph) -> tuple[int, ...]:
    n = g.n
    total_bits = n * (n - 1) // 2
    if g.m == 0 or g.m == total_bits:
        return tuple(range(n))
    adj = g.adj
    best_code = -1
    best_order: list[int] = []
    autos: list[list[int]] = []  # automorphisms found at tying leaves

    def search(cells: list[int], path: list[int]) -> None:
        nonlocal best_code, best_order
        cells = _refine(adj, cells)
        prefix: list[int] = []
        for cell in cells:
            if cell.bit_count() != 1:
                break
            prefix.append(cell.bit_length() - 1)
        if best_order and len(prefix) > 1:
            pbits = len(prefix) * (len(prefix) - 1) // 2
            if _code_of_order(adj, prefix) < best_code >> (total_bits - pbits):
                return
        if len(prefix) == n:
            code = _code_of_order(adj, prefix)
            if code > best_code:
                best_code, best_order = code, prefix
            elif code == best_code:
                gamma = [0] * n
                for b, v in zip(best_order, prefix):
                    gamma[b] = v
                autos.append(gamma)
            return
        target_idx = min(
            (i for i, c in enumerate(cells) if c.bit_count() > 1),
            key=lambda i: cells[i].bit_count(),
        )
        target = cells[target_idx]
        # orbits of the found automorphisms that fix the path pointwise
        root = list(range(n))

        def find(v: int) -> int:
            while root[v] != v:
                v = root[v]
            return v

        merged = 0
        tried: set[int] = set()
        for v in iter_bits(target):
            for gamma in autos[merged:]:
                if all(gamma[u] == u for u in path):
                    for u in range(n):
                        root[find(u)] = find(gamma[u])
            merged = len(autos)
            if find(v) in {find(w) for w in tried}:
                continue
            tried.add(v)
            branched = (
                cells[:target_idx]
                + [1 << v, target & ~(1 << v)]
                + cells[target_idx + 1:]
            )
            search(branched, path + [v])

    search([g.vertex_mask], [])
    return tuple(best_order)


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Key bytes plus the order array (order[p] = original vertex at slot p)."""
    order = _canonical_refined(g)
    inverse = [0] * g.n
    for p, v in enumerate(order):
        inverse[v] = p
    key = emit_graph6(permute(g, inverse)).encode("ascii")
    return key, order


def canonical_key(g: Graph) -> CanonicalKey:
    return canonical_form(g)[0]


def max_codes_batch(graphs: list[Graph], n: int) -> list[CanonicalKey]:
    """Keys of many graphs on n vertices, the enumerator's bulk call."""
    return [canonical_key(g) for g in graphs]


def canonical_graph(g: Graph) -> Graph:
    return parse_graph6(canonical_key(g).decode("ascii"))
