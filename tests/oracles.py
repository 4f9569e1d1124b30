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


def oracle_maximal_cliques(n, edges):
    """Every inclusion-maximal clique, as a sorted list of frozensets."""
    a = adj_dict(n, edges)
    cliques = [frozenset(combo) for r in range(1, n + 1)
               for combo in itertools.combinations(range(n), r)
               if oracle_is_clique(a, combo)]
    return sorted((c for c in cliques
                   if not any(v not in c and all(v in a[u] for u in c) for v in range(n))),
                  key=sorted)


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


def oracle_optimal_colorings(n, edges):
    """Every proper colouring with exactly oracle_chromatic colours.

    Colours are canonical: vertex 0 takes colour 0 and each later vertex
    may open at most the next unused colour, so each partition into
    classes appears exactly once.
    """
    a = adj_dict(n, edges)
    chi = oracle_chromatic(n, edges)
    colors = [-1] * n

    def rec(v, used):
        if v == n:
            if used == chi:
                yield tuple(colors)
            return
        taken = {colors[u] for u in a[v]}
        for c in range(min(used + 1, chi)):
            if c not in taken:
                colors[v] = c
                yield from rec(v + 1, max(used, c + 1))
        colors[v] = -1

    yield from rec(0, 0)


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
    """Canonical keys of levels 0..n_max, as the enumerator found them
    before canonical augmentation: every neighborhood of a new vertex on
    the graph each key of the level below decodes to, the keys collected
    and sorted by (m, key).

    Unlike the oracles above it uses the package's own extension step and
    keys, because it pins the enumerator's order.  Labels 11,291 graphs
    up to n = 7."""
    from qpkit.canonical import canonical_key, key_graph
    from qpkit.graphs import Graph, add_vertex

    levels = [[canonical_key(Graph(0, ()))]]
    for k in range(1, n_max + 1):
        keys = set()
        for parent_key in levels[-1]:
            parent = key_graph(parent_key)
            for mask in range(1 << (k - 1)):
                keys.add(canonical_key(add_vertex(parent, mask)))
        levels.append(sorted(keys, key=lambda key: (key_graph(key).m, key)))
    return levels


def restart_refine(adj, cells):
    """Equitable refinement as the labeling search did it before inert
    splitters were skipped: apply the first splitter, in cell order, that
    splits some cell, then restart from the first cell.  Every splitter is
    re-tested on every round.

    Unlike the brute-force oracles above it follows the package's splitter
    schedule, because it pins the package's cell order, and with it every
    canonical key."""
    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    changed = True
    while changed:
        changed = False
        for splitter in list(cells):
            new_cells = []
            for cell in cells:
                if cell.bit_count() <= 1:
                    new_cells.append(cell)
                    continue
                groups = {}
                for v in bits(cell):
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


def order_code(adj, order):
    """Upper triangle of the graph relabeled by order (order[p] at slot p),
    packed column by column into one int, first bit most significant."""
    code = 0
    for j in range(1, len(order)):
        for i in range(j):
            code = code << 1 | (adj[order[j]] >> order[i] & 1)
    return code


# ---------------------------------------------------------------------------
# The package's kernels as they were before they worked on whole words.
# Unlike the brute-force oracles above they follow the package's own
# algorithms, orders and messages, because the word-level kernels must
# reproduce every output exactly.  Graphs are plain tuples of row masks.

def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def former_induced_subgraph(adj, mask):
    """Rows of the subgraph induced on mask, relabeled in index order."""
    vs = list(_bits(mask))
    pos = {v: i for i, v in enumerate(vs)}
    rows = [0] * len(vs)
    for i, v in enumerate(vs):
        for u in _bits(adj[v] & mask):
            rows[i] |= 1 << pos[u]
    return tuple(rows)


def former_greedy_coloring_bound(adj):
    """Largest-first greedy coloring, one color per vertex."""
    n = len(adj)
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    colors = [-1] * n
    used = 0
    for v in order:
        taken = 0
        for u in _bits(adj[v]):
            if colors[u] >= 0:
                taken |= 1 << colors[u]
        c = 0
        while taken >> c & 1:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
    return used


def former_k_colorable(adj, k, seed):
    """k-colorability extending the clique seed, saturation from neighbours."""
    n = len(adj)
    colors = [-1] * n
    for i, v in enumerate(seed):
        colors[v] = i

    def pick():
        best, best_rank, best_sat = -1, (-1, -1, 0), 0
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = 0
            for u in _bits(adj[v]):
                if colors[u] >= 0:
                    sat |= 1 << colors[u]
            rank = (sat.bit_count(), adj[v].bit_count(), -v)
            if rank > best_rank:
                best, best_rank, best_sat = v, rank, sat
        return best, best_sat

    def rec(done, used):
        if done == n:
            return True
        v, taken = pick()
        for c in range(min(used + 1, k)):
            if taken >> c & 1:
                continue
            colors[v] = c
            if rec(done + 1, used + (1 if c == used else 0)):
                return True
            colors[v] = -1
        return False

    return rec(len(seed), len(seed))


def former_transversal_sets(adj, cliques):
    """Independent sets picking one vertex from every listed clique, in
    the order of the branching on the first uncovered clique."""
    out = []

    def extend(chosen, closed):
        for q in cliques:
            if not q & chosen:
                target = q
                break
        else:
            out.append(chosen)
            return
        for v in _bits(target & ~closed):
            extend(chosen | 1 << v, closed | adj[v])

    extend(0, 0)
    return out


def former_has_odd_hole(adj):
    """Odd hole test by chordless paths above each lowest vertex."""
    n = len(adj)
    full = (1 << n) - 1
    for s in range(n):
        above = full & ~((2 << s) - 1)
        ring = adj[s] & above
        stack = [(p, 2, 1 << p) for p in _bits(ring)]
        while stack:
            last, length, blocked = stack.pop()
            for v in _bits(adj[last] & above & ~blocked):
                if ring >> v & 1:
                    if length >= 4 and length % 2 == 0:
                        return True
                else:
                    stack.append((v, length + 1, blocked | adj[last]))
    return False


def former_parse_graph6(text):
    """(n, rows) of one graph6 string, bit by bit; ValueError with the
    package's message on malformed input."""
    if isinstance(text, str):
        try:
            data = text.strip().encode("ascii")
        except UnicodeEncodeError as exc:
            raise ValueError("graph6 must be printable ASCII") from exc
    else:
        data = bytes(text).strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    for b in data:
        if not 63 <= b <= 126:
            raise ValueError(f"byte {b} outside graph6 range")
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] != 126:
        n, body = data[0] - 63, data[1:]
    elif len(data) >= 2 and data[1] == 126:
        raise ValueError("graph6 size beyond supported range")
    elif len(data) < 4:
        raise ValueError("truncated graph6 size header")
    else:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    if n < 0 or n > 64:
        raise ValueError(f"vertex count {n} outside 0..64")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"expected {need} payload bytes for n={n}, got {len(body)}")
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if (body[k // 6] - 63) >> (5 - k % 6) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    if need and (body[-1] - 63) & ((1 << need * 6 - nbits) - 1):
        raise ValueError("nonzero padding bits")
    return n, tuple(adj)


def exhaustive_qp_supergraph(g, k_max, engine):
    """minimal_qp_supergraph as it was: every neighbourhood mask of every
    added vertex, in ascending order, the first graph per class tested.

    It uses the package's extension step, keys and engine, because it
    pins the witness the orbit-pruned search must return."""
    from qpkit.canonical import canonical_key
    from qpkit.graphs import add_vertex

    def attachments(h, k):
        if k == 0:
            yield h
            return
        for mask in range(1 << h.n):
            yield from attachments(add_vertex(h, mask), k - 1)

    for k in range(k_max + 1):
        seen = set()
        for h in attachments(g, k):
            key = canonical_key(h)
            if key in seen:
                continue
            seen.add(key)
            if engine.is_quasiperfect(h):
                return h, k
    return None


# ---------------------------------------------------------------------------
# The labeling search as it was before branch images were recorded instead
# of searched: orbit pruning and the first-path jump only, always the full
# search.  It follows the package's refinement and leaf order, because the
# pruned search must elect exactly the same leaf.

def former_canonical_refined(g):
    """(order, code, automorphisms) of the full search, as canonical._canonical_refined
    gave them before it recorded branch images."""
    from qpkit.canonical import _refine

    n, m = g.n, g.m
    total_bits = n * (n - 1) // 2
    if m == 0 or m == total_bits:
        gens = [[1, 0, *range(2, n)]] if n > 1 else []
        if n > 2:
            gens.append([*range(1, n), 0])
        return tuple(range(n)), (1 << m) - 1, gens
    adj = g.adj
    best_code = -1
    best_order = []
    best_path = []
    autos = []

    def find(root, v):
        while root[v] != v:
            v = root[v]
        return v

    def search(cells, path, inert, prefix, code):
        nonlocal best_code, best_order, best_path
        if len(cells) < n:
            cells = _refine(adj, cells, inert)
        shared = len(prefix)
        for cell in cells[shared:]:
            if cell & (cell - 1):
                break
            if len(prefix) == shared:
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
            elif code == best_code:
                gamma = [0] * n
                for b, v in zip(best_order, prefix):
                    gamma[b] = v
                autos.append(gamma)
                depth = 0
                while path[depth] == best_path[depth]:
                    depth += 1
                return depth
            return n
        target_idx, size = 0, n + 1
        for i in range(end, len(cells)):
            count = cells[i].bit_count()
            if 1 < count < size:
                target_idx, size = i, count
                if count == 2:
                    break
        target = cells[target_idx]
        head, tail = cells[:target_idx], cells[target_idx + 1:]
        root = None
        merged = 0
        tried = []
        level = len(path)
        for v in _bits(target):
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
            depth = search(head + [1 << v, target & ~(1 << v)] + tail,
                           path + [v], cells, prefix, code)
            if depth < level:
                return depth
        return n

    search([g.vertex_mask], [], None, [], 0)
    return tuple(best_order), best_code, autos


# ---------------------------------------------------------------------------
# The recognizer as it was before the side with fewer candidates went
# first: the PI side is always searched first, its candidates drawn one at
# a time.  Same memo, lookups and residues as the package's engine, so
# verdicts, memo entries and certificates must agree exactly.

def pi_first_engine(**kwargs):
    """A RecognitionEngine whose classes are analyzed PI side first."""
    from qpkit.recognition import RecognitionEngine, prime_cliques, prime_independent_sets

    class PiFirstEngine(RecognitionEngine):
        def _analyze(self, g):
            pi = self._first_branch(g, prime_independent_sets(g))
            if pi is None:
                return False
            pk = self._first_branch(g, prime_cliques(g))
            if pk is None:
                return False
            return pi[0], pk[0], pi[1], pk[1]

    return PiFirstEngine(**kwargs)
