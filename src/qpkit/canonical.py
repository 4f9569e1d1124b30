"""Canonical labelings and isomorphism-invariant keys.

Keys are the graph6 bytes of a canonically relabeled copy, so two graphs
compare equal by key exactly when they are isomorphic, and a key alone
decodes back to a concrete representative graph.

One algorithm serves every graph size: an individualization-refinement
search over ordered partitions elects the labeling with the largest
packed upper-triangle bit string (column-major, the graph6 bit order)
among the leaves it reaches; that bit string is the key's payload, so the
key is packed from it directly.  Every leaf whose bit string ties the best
one yields an automorphism, and the search skips a branch vertex that
such automorphisms (those fixing the branch's path) map onto a vertex
already tried, as in McKay and Piperno's orbit pruning.  Skipped
subtrees are images of searched ones, so pruning never changes the
elected labeling.  The automorphisms the search records generate the
whole automorphism group: every leaf with the elected bit string is
either reached, yielding one of them, or the image under them of a leaf
that is.

Refinement never re-tests an inert splitter, a cell mask against which
every cell has a single neighbor count: it stays inert on every finer
partition.  The cells of a node's equitable partition are all inert, so
a child, made by individualizing one vertex, starts with them skipped
and tests only the two new cells and the cells their splits produce.  A
skipped splitter would split nothing, so each round still applies the
first splitter in cell order that splits a cell, as when every splitter
is re-tested on every round: skipping changes neither the cell order nor
any key.  A child's leading singletons extend its parent's, so the packed
prefix code grows by the new columns only.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .graphs import Graph, graph6_of_code, iter_bits, parse_graph6

CanonicalKey = bytes


def _refine(adj: tuple[int, ...], cells: list[int],
            inert: Iterable[int] | None = None) -> list[int]:
    """Equitable refinement of an ordered partition of cell masks.

    Each round applies the first splitter, in cell order, that splits some
    cell: every cell is split by the number of neighbors its vertices have
    in that splitter, fragments in ascending count order, and the round
    restarts from the first cell.  Counts depend only on structure, so the
    refined partition is relabeling-invariant.

    A splitter mask is inert on a partition when every cell has a single
    count against it, and then on every refinement too.  A tested splitter
    is inert afterwards, whether it split anything or not, so it is never
    tested again; a caller that knows masks inert on ``cells`` (the cells
    of an equitable partition that ``cells`` refines) passes them as
    ``inert``.  A skipped splitter would split nothing, so each round
    still applies the first splitter in cell order that splits a cell,
    and the output is that of testing every splitter on every round.
    """
    done = set(inert) if inert else set()
    i = 0
    while i < len(cells):
        splitter = cells[i]
        i += 1
        if splitter in done:
            continue
        done.add(splitter)
        # built from the first split cell on: most splitters split nothing
        new_cells: list[int] | None = None
        if splitter & (splitter - 1) == 0:
            # one vertex u: counts are 1 on adj[u] and 0 off it
            nbrs = adj[splitter.bit_length() - 1]
            for j, cell in enumerate(cells):
                hit = cell & nbrs
                if hit and hit != cell:
                    if new_cells is None:
                        new_cells = cells[:j]
                    new_cells += (cell ^ hit, hit)
                elif new_cells is not None:
                    new_cells.append(cell)
        else:
            for j, cell in enumerate(cells):
                if cell & (cell - 1):
                    # vertices share the first count until one differs;
                    # groups are built from that vertex on, if one does
                    low = cell & -cell
                    first = (adj[low.bit_length() - 1] & splitter).bit_count()
                    same, rest = low, cell ^ low
                    while rest:
                        low = rest & -rest
                        if (adj[low.bit_length() - 1] & splitter).bit_count() != first:
                            break
                        same |= low
                        rest ^= low
                    if rest:
                        groups = {first: same}
                        while rest:
                            low = rest & -rest
                            c = (adj[low.bit_length() - 1] & splitter).bit_count()
                            groups[c] = groups.get(c, 0) | low
                            rest ^= low
                        if new_cells is None:
                            new_cells = cells[:j]
                        new_cells += (groups[c] for c in sorted(groups))
                        continue
                if new_cells is not None:
                    new_cells.append(cell)
        if new_cells is not None:
            cells = new_cells
            i = 0
    return cells


def _canonical_refined(g: Graph) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """The elected order, its code, and automorphisms that generate Aut(g).

    The code is the upper-triangle bit string of g relabeled by the order,
    in graph6 order.  Each automorphism is a list gamma with gamma[v] the
    image of v.
    """
    n, m = g.n, g.m
    total_bits = n * (n - 1) // 2
    if m == 0 or m == total_bits:
        # the symmetric group: a transposition and an n-cycle generate it
        gens = [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []
        return tuple(range(n)), (1 << m) - 1, gens
    adj = g.adj
    best_code = -1
    best_order: list[int] = []
    autos: list[list[int]] = []  # automorphisms found at tying leaves

    def find(root: list[int], v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    def search(cells: list[int], path: list[int], inert: list[int] | None,
               prefix: list[int], code: int) -> None:
        # prefix holds the leading singletons of the parent, code their
        # packed bits; refinement splits cells in place, so they lead here
        # too.  A discrete partition is already equitable.
        nonlocal best_code, best_order
        if len(cells) < n:
            cells = _refine(adj, cells, inert)
        shared = len(prefix)
        for cell in cells[shared:]:
            if cell & (cell - 1):
                break
            if len(prefix) == shared:  # the parent's list, shared by its children
                prefix = prefix[:]
            col = adj[cell.bit_length() - 1]
            for u in prefix:
                code = code << 1 | (col >> u & 1)
            prefix.append(cell.bit_length() - 1)
        end = len(prefix)
        if best_order and end > 1:
            pbits = end * (end - 1) // 2
            if code < best_code >> (total_bits - pbits):
                return
        if end == n:
            if code > best_code:
                best_code, best_order = code, prefix
            elif code == best_code:
                gamma = [0] * n
                for b, v in zip(best_order, prefix):
                    gamma[b] = v
                autos.append(gamma)
            return
        # the first smallest non-singleton cell; none beats a 2-cell
        target_idx, size = 0, n + 1
        for i in range(end, len(cells)):
            count = cells[i].bit_count()
            if 1 < count < size:
                target_idx, size = i, count
                if count == 2:
                    break
        target = cells[target_idx]
        head, tail = cells[:target_idx], cells[target_idx + 1:]
        # orbits of the found automorphisms that fix the path pointwise,
        # built and merged once a second branch needs them
        root: list[int] | None = None
        merged = 0
        tried: list[int] = []
        for v in iter_bits(target):
            if tried:
                if root is None:
                    root = list(range(n))
                for gamma in autos[merged:]:
                    if all(gamma[u] == u for u in path):
                        for u in range(n):
                            if gamma[u] != u:
                                root[find(root, u)] = find(root, gamma[u])
                merged = len(autos)
                orbit = find(root, v)
                if any(find(root, w) == orbit for w in tried):
                    continue
            tried.append(v)
            # every cell of the equitable parent is inert on the child
            search(head + [1 << v, target & ~(1 << v)] + tail,
                   path + [v], cells, prefix, code)

    search([g.vertex_mask], [], None, [], 0)
    return tuple(best_order), best_code, autos


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Key bytes plus the order array (order[p] = original vertex at slot p)."""
    order, code, _ = _canonical_refined(g)
    return graph6_of_code(g.n, code), order


def canonical_key(g: Graph) -> CanonicalKey:
    return canonical_form(g)[0]


def automorphism_generators(g: Graph) -> list[list[int]]:
    """Permutations gamma (v maps to gamma[v]) that generate Aut(g)."""
    return _canonical_refined(g)[2]


def max_codes_batch(graphs: list[Graph], n: int) -> list[CanonicalKey]:
    """Keys of many graphs on n vertices.

    qpkit no longer calls it; bench/tracing.py still spans it by name.
    """
    return [canonical_key(g) for g in graphs]


@lru_cache(maxsize=1 << 16)
def key_graph(key: CanonicalKey) -> Graph:
    """The graph a key decodes to, decoded once per process.

    Raises GraphFormatError for bytes that are not graph6.  Text a user
    supplies goes through parse_graph6 directly and is not kept.
    """
    return parse_graph6(key)


def canonical_graph(g: Graph) -> Graph:
    return key_graph(canonical_key(g))
