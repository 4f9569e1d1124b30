"""Independent brute-force oracles used to validate the package.

Everything here is written against plain vertex sets and adjacency dicts,
deliberately sharing no representation or algorithm with the package
under test.  Exponential cost throughout; keep n small.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def adj_dict(n, edges):
    a = {v: set() for v in range(n)}
    for u, v in edges:
        a[u].add(v)
        a[v].add(u)
    return a


def graph_edges(g):
    """Edge list of a package Graph, via the public neighbor test only."""
    return [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
            if g.has_edge(u, v)]


def oracle_is_clique(a, s):
    return all(v in a[u] for u, v in itertools.combinations(sorted(s), 2))


def oracle_is_independent(a, s):
    return all(v not in a[u] for u, v in itertools.combinations(sorted(s), 2))


def oracle_max_cliques(n, edges):
    """All maximum-cardinality cliques, as a set of frozensets."""
    a = adj_dict(n, edges)
    best, out = 0, set()
    for r in range(n, 0, -1):
        for combo in itertools.combinations(range(n), r):
            if oracle_is_clique(a, combo):
                out.add(frozenset(combo))
                best = r
        if out:
            break
    if not out and n == 0:
        return set()
    if not out:  # n >= 1 always has singletons
        out = {frozenset((v,)) for v in range(n)}
    return out


def oracle_omega(n, edges):
    cliques = oracle_max_cliques(n, edges)
    return max((len(c) for c in cliques), default=0)


def oracle_max_independent(n, edges):
    comp = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in {tuple(sorted(e)) for e in edges}]
    return oracle_max_cliques(n, comp)


def oracle_alpha(n, edges):
    return max((len(s) for s in oracle_max_independent(n, edges)), default=0)


def oracle_chromatic(n, edges):
    """Exact chromatic number by inclusion-exclusion over independent sets.

    chi(G) = min k such that sum over subsets S of V of
    (-1)^{n-|S|} * i(S)^k > 0, where i(S) counts independent subsets of S.
    """
    if n == 0:
        return 0
    a = adj_dict(n, edges)
    full = (1 << n) - 1
    ind = [0] * (full + 1)  # number of independent subsets of S, empty incl.
    ind[0] = 1
    nbr = [0] * n
    for v in range(n):
        for u in a[v]:
            nbr[v] |= 1 << u
    for s in range(1, full + 1):
        v = (s & -s).bit_length() - 1
        rest = s & ~(1 << v)
        ind[s] = ind[rest] + ind[rest & ~nbr[v]]
    for k in range(1, n + 1):
        total = 0
        for s in range(full + 1):
            sign = -1 if (n - bin(s).count("1")) % 2 else 1
            total += sign * ind[s] ** k
        if total > 0:
            return k
    raise AssertionError("unreachable")


def oracle_prime_independent_sets(n, edges):
    """All vertex sets satisfying the prime-independent-set clauses.

    The order-zero graph admits exactly the empty set (every clause is
    vacuous), matching the recursion base case.
    """
    if n == 0:
        return [frozenset()]
    a = adj_dict(n, edges)
    cliques = oracle_max_cliques(n, edges)
    covered = set().union(*cliques) if cliques else set()
    out = []
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            s = set(combo)
            if not oracle_is_independent(a, s):
                continue
            if any(not (s & c) for c in cliques):
                continue
            if not s <= covered:
                continue
            out.append(frozenset(s))
    return out


def oracle_prime_cliques(n, edges):
    edge_set = {tuple(sorted(e)) for e in edges}
    comp = [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in edge_set]
    return oracle_prime_independent_sets(n, comp)


def _induced(n, edges, keep):
    keep = sorted(keep)
    relabel = {v: i for i, v in enumerate(keep)}
    sub = [(relabel[u], relabel[v]) for u, v in edges
           if u in relabel and v in relabel]
    return len(keep), sub


def oracle_quasiperfect(n, edges):
    """Definition checked literally: some PI and some PK both leave
    quasiperfect residues.  Unmemoized, exponential; n <= 6 or so."""
    return _oracle_qp(n, frozenset(map(tuple, map(sorted, edges))))


@lru_cache(maxsize=None)
def _oracle_qp(n, edge_key):
    edges = [tuple(e) for e in edge_key]
    if n == 0:
        return True
    pis = oracle_prime_independent_sets(n, edges)
    pks = oracle_prime_cliques(n, edges)
    ok_pi = any(_oracle_qp(*_freeze(_induced(n, edges, set(range(n)) - s)))
                for s in pis)
    if not ok_pi:
        return False
    return any(_oracle_qp(*_freeze(_induced(n, edges, set(range(n)) - s)))
               for s in pks)


def _freeze(pair):
    n, edges = pair
    return n, frozenset(map(tuple, map(sorted, edges)))


def oracle_is_perfect(n, edges):
    """omega == chi on every induced subgraph."""
    for r in range(n + 1):
        for keep in itertools.combinations(range(n), r):
            m, sub = _induced(n, edges, set(keep))
            if oracle_omega(m, sub) != oracle_chromatic(m, sub):
                return False
    return True


def hereditary_is_perfect(n, edges):
    """omega == chi on every induced subgraph, memoized on vertex subsets.

    This is the definition of perfection checked literally.  Both numbers
    are tabulated over all vertex subsets S in increasing order, each from
    smaller subsets: with v the lowest vertex of S, a maximum clique of S
    either avoids v or is v plus a clique of its neighbours in S, and an
    optimal coloring of S gives v's color class to some independent set
    through v.  About 3^n / 2 steps; n <= 10 or so.
    """
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    size = 1 << n
    omega = [0] * size
    chi = [0] * size
    independent = [True] * size
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        rest = s & ~(1 << v)
        independent[s] = independent[rest] and not nbr[v] & rest
        omega[s] = max(omega[rest], 1 + omega[rest & nbr[v]])
        best = n
        free = rest & ~nbr[v]
        t = free  # every independent t with t + v independent is inside free
        while True:
            if independent[t]:
                best = min(best, 1 + chi[rest & ~t])
            if t == 0:
                break
            t = (t - 1) & free
        chi[s] = best
        if omega[s] != chi[s]:
            return False
    return True


def enumerate_classes_by_permutation(n):
    """Isomorphism classes on n vertices by filtering all labeled graphs
    through explicit permutation orbits.  Usable up to n = 5."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    reps = []
    for bits in range(1 << len(pairs)):
        if bits in seen:
            continue
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        orbit = set()
        for p in perms:
            img = frozenset(tuple(sorted((p[u], p[v]))) for u, v in edges)
            orbit.add(sum(1 << pairs.index(e) for e in img))
        seen |= orbit
        reps.append((n, edges))
    return reps


def enumerate_by_extension(n_max):
    """Levels 0..n_max of the enumerator as it was before canonical
    augmentation: every neighborhood of a new vertex on every class of the
    level below, the first candidate per canonical key kept, sorted by
    (m, key).

    Unlike the oracles above it uses the package's own extension step and
    keys, because it pins the enumerator's representatives and order.
    Labels 11,291 graphs up to n = 7."""
    from qpkit.canonical import canonical_key
    from qpkit.graphs import Graph, add_vertex

    levels = [[Graph(0, ())]]
    for k in range(1, n_max + 1):
        reps = {}
        for parent in levels[-1]:
            for mask in range(1 << (k - 1)):
                g = add_vertex(parent, mask)
                reps.setdefault(canonical_key(g), g)
        ranked = sorted(reps.items(), key=lambda item: (item[1].m, item[0]))
        levels.append([g for _, g in ranked])
    return levels
