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

After a leaf that ties the best one, the search backjumps, as in McKay's
first-path jump: it resumes at the deepest node that this leaf's path
shares with the best leaf's, and every node below that one returns at
once.  Refinement and the choice of target cell are label-invariant, and
the individualized vertex always takes the first slot of its target
cell, so the automorphism just found maps the best leaf's path onto this
one, node by node.  Below the shared node the best path's child is an
earlier sibling, already searched, so the rest of the current subtree is
the image of searched leaves: none beats the best code, the elected
labeling stays the same, and the recorded automorphisms still generate
the whole group.  Only the generator lists get shorter.

At a node where a branch after the first survives orbit pruning, two
rules may give, for free, an automorphism that fixes every cell of the
node's equitable partition and maps the first branch vertex t0 onto that
branch's vertex v; the search then records it and skips the branch.  The
rules are decided once per node, and only there (see _image_rule):

* Twin target: every vertex of the target cell T has the same row
  outside T, and T is a clique or an independent set.  Then t0 and v
  have the same neighbors apart from each other, so the transposition
  (t0 v) is an automorphism, and it moves only vertices of T.
* Pair cells: every non-singleton cell has exactly two vertices.  Let
  sigma swap both vertices of every pair at once.  It fixes the
  singletons, the path among them.  In an equitable partition the two
  vertices of a pair have the same count against every cell: a singleton
  sees a pair whole or not at all, and two pairs are joined fully, not at
  all, or by a perfect matching, which sigma maps onto itself.  The edge
  inside a pair, if any, is kept.  So sigma is an automorphism, and the
  target is a pair {t0, v}.

The skipped subtree is the image of the first branch's, which was
searched: each of its leaves has the code of a searched leaf, so none
beats the best code and, coming later, none is the first leaf with it;
the elected labeling is unchanged.  The recorded automorphism maps the
skipped tying leaves onto searched ones, so the recorded automorphisms
still generate the whole group.  `canonical_form` and
`automorphism_generators` both take these rules: there is one search
path.

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

`canonical_form` keeps a bounded, process-wide set of the codes its
searches elected, one per class, each tagged with n as
``code | 1 << n(n-1)/2``, and its search stops at the first leaf whose
tagged code is in that set, electing that leaf.  This is exact.  Say
the leaf has order L and code c, and c is in the set.  Then g relabeled
by L is the graph that c's key decodes to, so g is in that key's class,
and keys are class invariants, so g's elected code is c.  No earlier
leaf had code c, or the search would have stopped there, so L is the
first leaf with the maximal code: the very leaf the full search elects,
since the two searches are the same up to it.  It holds only while every
entry is a code that a search elected: a key from a certificate
document, from `key_graph` or from user graph6 never enters the set.
Leaves after the first best one only prove that its code is maximal;
for a class already labeled in the process that proof is known.
`automorphism_generators` needs the whole group and always runs the
full search.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .graphs import Graph, graph6_of_code, iter_bits, parse_graph6

CanonicalKey = bytes

# Tagged codes that searches elected (see the module docstring); only
# canonical_form adds to it, and it stops adding at _KNOWN_CODES_MAX.
_known_codes: set[int] = set()
_KNOWN_CODES_MAX = 1 << 16


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


def _image_rule(adj: tuple[int, ...], cells: list[int], target: int, size: int) -> str:
    """Which automorphism of the node maps its first branch onto a later one.

    cells are the cells of an equitable partition after its leading
    singletons, target the search's target cell and size its vertex
    count.  "twins" when every target vertex has the same row outside the
    target and the target is a clique or an independent set: then any two
    target vertices are twins, and their transposition is an automorphism
    fixing every other vertex.  Equitability makes every target vertex
    count the same neighbors inside the target, so the first one's count
    decides clique or independent.  "pairs" when every non-singleton cell
    has two vertices: swapping both vertices of every pair at once is then
    an automorphism, see the module docstring.  "" when neither holds.
    """
    low = target & -target
    row = adj[low.bit_length() - 1]
    inside, outside = row & target, row & ~target
    if not inside or inside == target ^ low:
        rest = target ^ low
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & ~target != outside:
                break
            rest ^= low
        else:
            return "twins"
    if size == 2 and all(cell.bit_count() <= 2 for cell in cells):
        return "pairs"
    return ""


def _canonical_refined(g: Graph, known: set[int] | None = None
                       ) -> tuple[tuple[int, ...], int, list[list[int]]]:
    """The elected order, its code, and automorphisms that generate Aut(g).

    The code is the upper-triangle bit string of g relabeled by the order,
    in graph6 order.  Each automorphism is a list gamma with gamma[v] the
    image of v.

    Without known this is the full search.  With it, a set of tagged codes
    (code | 1 << n(n-1)/2) that searches elected, the search stops at the
    first leaf whose tagged code is in known, and the automorphisms are
    only those found before it; a search that runs to the end adds its
    code while known holds fewer than _KNOWN_CODES_MAX.  Orders and codes
    are the full search's either way.
    """
    n, m = g.n, g.m
    total_bits = n * (n - 1) // 2
    if m == 0 or m == total_bits:
        # the symmetric group: a transposition and, for n > 2, an n-cycle
        # generate it
        gens = [[1, 0, *range(2, n)]] if n > 1 else []
        if n > 2:
            gens.append([*range(1, n), 0])
        return tuple(range(n)), (1 << m) - 1, gens
    adj = g.adj
    tag = 1 << total_bits
    best_code = -1
    best_order: list[int] = []
    best_path: list[int] = []
    autos: list[list[int]] = []  # automorphisms found at tying leaves

    def find(root: list[int], v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    def search(cells: list[int], path: list[int], inert: list[int] | None,
               prefix: list[int], code: int) -> int:
        # prefix holds the leading singletons of the parent, code their
        # packed bits; refinement splits cells in place, so they lead here
        # too.  A discrete partition is already equitable.  Returns the
        # depth to resume at, n when nothing is skipped: every node deeper
        # than it returns at once.
        nonlocal best_code, best_order, best_path
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
                return n
        if end == n:
            if code > best_code:
                best_code, best_order, best_path = code, prefix, path
                if known is not None and (code | tag) in known:
                    return -1  # elected: every node returns at once
            elif code == best_code:
                gamma = [0] * n
                for b, v in zip(best_order, prefix):
                    gamma[b] = v
                autos.append(gamma)
                # backjump to the deepest node the two paths share: below
                # it, gamma maps searched subtrees onto this path's
                depth = 0
                while path[depth] == best_path[depth]:
                    depth += 1
                return depth
            return n
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
        level = len(path)
        image: str | None = None  # the branch-image rule, decided lazily
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
                if image is None:
                    image = _image_rule(adj, cells[end:], target, size)
                if image:
                    # an automorphism fixing the node maps tried[0] to v:
                    # record it instead of searching its image
                    gamma = list(range(n))
                    if image == "twins":
                        gamma[tried[0]], gamma[v] = v, tried[0]
                    else:
                        for cell in cells[end:]:
                            if cell & (cell - 1):
                                a, b = (cell & -cell).bit_length() - 1, cell.bit_length() - 1
                                gamma[a], gamma[b] = b, a
                    autos.append(gamma)
                    continue
            tried.append(v)
            # every cell of the equitable parent is inert on the child
            depth = search(head + [1 << v, target & ~(1 << v)] + tail,
                           path + [v], cells, prefix, code)
            if depth < level:
                return depth
        return n

    search([g.vertex_mask], [], None, [], 0)
    if known is not None and len(known) < _KNOWN_CODES_MAX:
        known.add(best_code | tag)  # already there after a stop
    return tuple(best_order), best_code, autos


@lru_cache(maxsize=1 << 16)
def canonical_form(g: Graph) -> tuple[CanonicalKey, tuple[int, ...]]:
    """Key bytes plus the order array (order[p] = original vertex at slot p)."""
    order, code, _ = _canonical_refined(g, _known_codes)
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
