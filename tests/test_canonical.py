"""Canonical forms: invariance, completeness, and the pruned search."""

import hashlib
import itertools
import json
import random
import time

import networkx as nx

import oracles
from conftest import edge_pairs, random_graph
from qpkit import canonical, cli
from qpkit.canonical import (
    _canonical_refined,
    _refine,
    automorphism_generators,
    canonical_form,
    canonical_key,
    key_graph,
    max_codes_batch,
)
from qpkit.families import FamilySpec, c5_blowup_with_apex, odd_cycle_family, replicate
from qpkit.graphs import (
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    emit_graph6,
    from_edges,
    graph6_of_code,
    iter_bits,
    mask_of,
    parse_graph6,
    permute,
)
from qpkit.harness import _subset_orbit_minima
from qpkit.recognition import QpCertificate, RecognitionEngine, verify_certificate


def _refined_key(g):
    order, _, _ = _canonical_refined(g)
    inv = [0] * g.n
    for p, v in enumerate(order):
        inv[v] = p
    return emit_graph6(permute(g, inv))


class TestInvariance:
    def test_all_permutations_small(self):
        # every labeling of every class on up to 5 vertices hits one key
        for n in range(6):
            for g in _all_classes(n):
                keys = {canonical_key(permute(g, list(p)))
                        for p in itertools.permutations(range(n))}
                assert len(keys) == 1

    def test_random_permutations(self, rng):
        for n in (6, 7, 8, 9, 10, 12):
            for _ in range(15):
                g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_key(g) == canonical_key(permute(g, perm))

    def test_refined_algorithm_alone(self, rng):
        # the search itself, without the lru_cache in front of canonical_form
        for _ in range(40):
            n = rng.randrange(4, 10)
            g = random_graph(rng, n, rng.choice([0.3, 0.7]))
            perm = list(range(n))
            rng.shuffle(perm)
            assert _refined_key(g) == _refined_key(permute(g, perm))


class TestCompleteness:
    def test_key_decodes_to_isomorphic_graph(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randrange(0, 11))
            h = key_graph(canonical_key(g))
            assert canonical_key(h) == canonical_key(g)
            hx = nx.Graph()
            hx.add_nodes_from(range(g.n))
            hx.add_edges_from(edge_pairs(g))
            gx = nx.Graph()
            gx.add_nodes_from(range(h.n))
            gx.add_edges_from(edge_pairs(h))
            assert nx.is_isomorphic(hx, gx)

    def test_distinct_classes_distinct_keys(self):
        for n in range(6):
            keys = [canonical_key(g) for g in _all_classes(n)]
            assert len(keys) == len(set(keys))

    def test_nonisomorphic_same_degrees(self):
        # C6 vs two triangles: both 2-regular on 6 vertices
        c6 = cycle_graph(6)
        tt = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_key(c6) != canonical_key(tt)

    def test_nonisomorphic_at_refined_sizes(self, rng):
        # equality of keys must track nx.is_isomorphic on random 9-vertex pairs
        for _ in range(30):
            g = random_graph(rng, 9, 0.5)
            h = random_graph(rng, 9, 0.5)
            gx = nx.Graph()
            gx.add_nodes_from(range(9))
            gx.add_edges_from(edge_pairs(g))
            hx = nx.Graph()
            hx.add_nodes_from(range(9))
            hx.add_edges_from(edge_pairs(h))
            assert (canonical_key(g) == canonical_key(h)) == nx.is_isomorphic(
                gx, hx)


class TestForm:
    def test_order_is_valid_relabeling(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 12))
            key, order = canonical_form(g)
            assert sorted(order) == list(range(g.n))
            inv = [0] * g.n
            for p, v in enumerate(order):
                inv[v] = p
            assert emit_graph6(permute(g, inv)).encode() == key

    def test_extremes(self):
        for n in (0, 1, 5, 9, 12):
            assert canonical_key(complete_graph(n)) == emit_graph6(
                complete_graph(n)).encode()
            assert canonical_key(empty_graph(n)) == emit_graph6(
                empty_graph(n)).encode()

    def test_pruning_keeps_elected_labeling(self, rng):
        # orbit pruning skips only images of searched subtrees, so the
        # pruned search elects the same leaf as the unpruned one, which
        # refines with the oracle's restart-from-scratch schedule
        graphs = [random_graph(rng, rng.randrange(2, 11), rng.choice([0.3, 0.5, 0.7]))
                  for _ in range(60)]
        graphs += [_disjoint_cliques(k, 3) for k in (2, 3)]
        graphs += [complement(g) for g in graphs[-2:]]
        graphs.append(cycle_graph(9))
        # symmetric graphs, where the search backjumps after automorphisms;
        # the unpruned search takes at most a few hundredths of a second
        symmetric = [_disjoint_cliques(3, 2), _disjoint_cliques(4, 2),
                     _disjoint_cliques(2, 4), _disjoint_cycles(2, 4),
                     _blowup(4, 2), _blowup(5, 2), _rook(2, 3), _rook(2, 4),
                     _rook(3, 3), _biclique(3, 3)]
        graphs += symmetric + [complement(g) for g in symmetric]
        for g in graphs:
            assert _canonical_refined(g)[0] == _unpruned_order(g)


class TestRefinement:
    @staticmethod
    def _random_partition(rnd, n):
        """Vertices shuffled, cut into runs, the runs in random order."""
        vertices = list(range(n))
        rnd.shuffle(vertices)
        cuts = sorted(rnd.sample(range(1, n), rnd.randrange(n))) if n > 1 else []
        cells = [sum(1 << v for v in vertices[a:b])
                 for a, b in zip([0, *cuts], [*cuts, n])]
        rnd.shuffle(cells)
        return cells

    def test_matches_restart_oracle(self, rng):
        for _ in range(300):
            n = rng.randrange(1, 17)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            cells = self._random_partition(rng, n)
            assert _refine(g.adj, cells) == oracles.restart_refine(g.adj, cells)

    def test_child_inherits_parent_cells(self, rng):
        # every cell of an equitable partition is inert on its refinements,
        # so the child skips them and still refines as the oracle does
        graphs = [random_graph(rng, rng.randrange(2, 17), rng.choice([0.2, 0.5, 0.8]))
                  for _ in range(120)]
        graphs += [_disjoint_cliques(4, 3), _biclique(5, 6), _blowup(5, 3),
                   cycle_graph(16), c5_blowup_with_apex(2)]
        graphs += [complement(g) for g in graphs[-5:]]
        checked = 0
        for g in graphs:
            for start in ([g.vertex_mask], self._random_partition(rng, g.n)):
                parent = oracles.restart_refine(g.adj, start)
                for i, cell in enumerate(parent):
                    if cell.bit_count() < 2:
                        continue
                    for v in iter_bits(cell):
                        child = parent[:i] + [1 << v, cell & ~(1 << v)] + parent[i + 1:]
                        assert _refine(g.adj, child, inert=parent) == (
                            oracles.restart_refine(g.adj, child))
                        checked += 1
        assert checked > 400

    def test_keys_pinned_up_to_seven(self):
        # sha256 over the key of every class with n <= 7, in enumeration
        # order; a refinement that reorders cells changes keys and fails here
        keys = [canonical_key(g) for n in range(8) for g in _all_classes(n)]
        assert len(keys) == 1253
        assert hashlib.sha256(b"".join(k + b"\n" for k in keys)).hexdigest() == (
            "24edb46f80d8ce0559f619ee325be6867f61319658871b2a843181dfcecd48b8")


class TestAutomorphisms:
    @staticmethod
    def _is_automorphism(g, gamma):
        return sorted(gamma) == list(range(g.n)) and all(
            g.has_edge(gamma[u], gamma[v]) == g.has_edge(u, v)
            for u, v in itertools.combinations(range(g.n), 2))

    def test_returned_automorphisms_preserve_adjacency(self):
        graphs = [g for n in range(7) for g in _all_classes(n)]
        graphs += [_disjoint_cliques(5, 3), _biclique(6, 6)]
        for g in graphs:
            _, _, autos = _canonical_refined(g)
            assert all(self._is_automorphism(g, gamma) for gamma in autos)

    def test_generators_pinned_up_to_seven(self):
        # sha256 over the orbit minima on vertex subsets of the group the
        # generators of every class with n <= 7 generate, in enumeration
        # order, one JSON list per line: the enumerator extends one subset
        # per orbit.  The minima are taken on the graph each class's key
        # decodes to.  The generator lists themselves may change with the
        # search; the orbits they generate may not
        lines = [json.dumps(_subset_orbit_minima(g.n, automorphism_generators(g))).encode()
                 + b"\n" for n in range(8) for g in _all_classes(n)]
        assert len(lines) == 1253
        assert hashlib.sha256(b"".join(lines)).hexdigest() == (
            "c4fad3af18e40670b976b1fd20819727d9851cd59f49fefbc68b934028ed6c67")

    def test_at_most_n_minus_one_generators(self):
        # after an automorphism the search backjumps past the subtrees it
        # maps onto searched ones, so it records few: without the jump,
        # 8K3 gets 52 generators
        graphs = [g for n in range(8) for g in _all_classes(n)
                  if 0 < g.m < g.n * (g.n - 1) // 2]
        graphs += [_disjoint_cliques(5, 3), _disjoint_cliques(8, 3),
                   _biclique(6, 6), _blowup(5, 3)]
        for g in graphs:
            assert len(automorphism_generators(g)) <= g.n - 1

    def test_symmetric_group_generators(self):
        # the edgeless and complete graphs skip the search: a transposition
        # and, from n = 3 on, an n-cycle
        for n in range(6):
            for g in (empty_graph(n), complete_graph(n)):
                assert len(automorphism_generators(g)) == (0, 0, 1, 2, 2, 2)[n]

    def test_they_generate_the_whole_group(self):
        # the enumerator extends one subset per orbit of the group they generate
        for n in range(7):
            for g in _all_classes(n):
                group = {tuple(p) for p in itertools.permutations(range(n))
                         if self._is_automorphism(g, p)}
                closure, frontier = {tuple(range(n))}, [tuple(range(n))]
                while frontier:
                    p = frontier.pop()
                    for gamma in automorphism_generators(g):
                        q = tuple(gamma[v] for v in p)
                        if q not in closure:
                            closure.add(q)
                            frontier.append(q)
                assert closure == group


class TestEnumeratedClasses:
    def test_keys_survive_random_relabelings(self):
        rnd = random.Random(7)
        for n in range(8):
            for g in _all_classes(n):
                key = canonical_key(g)
                for _ in range(3):
                    perm = list(range(n))
                    rnd.shuffle(perm)
                    assert canonical_key(permute(g, perm)) == key

    def test_keys_distinct_at_seven(self):
        keys = [canonical_key(g) for g in _all_classes(7)]
        assert len(keys) == 1044
        assert len(set(keys)) == 1044


class TestSymmetric:
    def test_keys_match_networkx(self, rng):
        # kK3 and C_{3k} share n, m and degrees; each graph also meets a
        # random relabeling of itself, and its complement one of the
        # complement (networkx takes seconds on the complemented pairs)
        base = [_disjoint_cliques(k, 3) for k in range(1, 6)]
        base += [cycle_graph(3 * k) for k in range(2, 6)]
        base += [_biclique(6, 6)]
        base += [_blowup(c, t) for c in (5, 6, 7) for t in (1, 2, 3)]
        base += [c5_blowup_with_apex(t) for t in (1, 2, 3)]
        graphs = []
        for g in base:
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs += [g, permute(g, perm)]
        for a, b in itertools.combinations(graphs, 2):
            if (a.n, a.m) == (b.n, b.m):
                assert (canonical_key(a) == canonical_key(b)) == nx.is_isomorphic(
                    _nx(a), _nx(b))
        for g in graphs[1::2]:
            h = complement(g)
            perm = list(range(h.n))
            rng.shuffle(perm)
            assert canonical_key(h) == canonical_key(permute(h, perm))

    def test_symmetric_labelings_are_fast(self):
        # without orbit pruning the search is exponential on these: 5K3
        # alone takes about half a minute
        for g in (_disjoint_cliques(5, 3), _disjoint_cliques(8, 3), _biclique(6, 6)):
            t0 = time.perf_counter()
            _canonical_refined(g)
            assert time.perf_counter() - t0 < 5.0


class TestKnownClasses:
    """canonical_form stops at the first leaf whose code a search elected
    earlier in the process; it must elect what the full search elects."""

    @staticmethod
    def _relabelings(graphs, copies, seed):
        rnd = random.Random(seed)
        out = []
        for g in graphs:
            out.append(g)
            for _ in range(copies):
                perm = list(range(g.n))
                rnd.shuffle(perm)
                out.append(permute(g, perm))
        return out

    def test_same_election_cold_and_warm(self):
        # FFzvO, a class with n = 7, comes first: its first leaf is not its
        # elected one, so a search that stops at a first leaf without
        # asking the set fails on it
        ffzvo = parse_graph6("FFzvO")
        assert _first_leaf_code(ffzvo) < _canonical_refined(ffzvo)[1]
        graphs = [ffzvo]
        graphs += self._relabelings([g for n in range(8) for g in _all_classes(n)], 2, 11)
        graphs += [complement(g) for g in graphs]
        graphs += [odd_cycle_family(FamilySpec(n, pos)).graph for n in (5, 7)
                   for o in range(1, n + 1)
                   for pos in itertools.combinations(range(1, n + 1), o)]
        graphs += [_disjoint_cliques(5, 3), _disjoint_cliques(8, 3), _biclique(6, 6),
                   _blowup(5, 3)]
        full = [_canonical_refined(g)[:2] for g in graphs]
        canonical._known_codes.clear()
        for _ in ("cold", "warm"):
            canonical_form.cache_clear()
            for g, (order, code) in zip(graphs, full):
                assert canonical_form(g) == (graph6_of_code(g.n, code), order)
        assert len(canonical._known_codes) > 1000

    def test_only_elected_codes_enter(self, capsys):
        canonical._known_codes.clear()
        canonical_form.cache_clear()
        assert cli.main(["verify", "all", "--n-max", "6"]) == 0
        capsys.readouterr()
        # a valid certificate of FFzvO whose root node sits under a
        # relabeled, non-canonical key, its masks and order relabeled to
        # match; only an in-memory certificate can carry such a root key
        g = parse_graph6("FFzvO")
        cert = RecognitionEngine().recognize(g).certificate
        perm = list(reversed(range(g.n)))
        relabeled = emit_graph6(permute(key_graph(cert.key), perm)).encode("ascii")
        assert relabeled != cert.key
        nodes = dict(cert.nodes)
        pi, pk, pi_child, pk_child = nodes.pop(cert.key)
        nodes[relabeled] = (mask_of(perm[v] for v in iter_bits(pi)),
                            mask_of(perm[v] for v in iter_bits(pk)), pi_child, pk_child)
        order = tuple(cert.order[perm.index(w)] for w in range(g.n))
        assert verify_certificate(g, QpCertificate(relabeled, order, nodes))
        # each entry is the code the full search elects on the graph it
        # decodes to
        entries = sorted(canonical._known_codes)
        assert len(entries) > 150
        for entry in entries:
            total = entry.bit_length() - 1
            n = next(n for n in itertools.count(2) if n * (n - 1) // 2 == total)
            code = entry ^ 1 << total
            assert _canonical_refined(parse_graph6(graph6_of_code(n, code)))[1] == code

    def test_automorphisms_ignore_the_set(self):
        graphs = self._relabelings([g for n in range(8) for g in _all_classes(n)], 1, 13)
        canonical._known_codes.clear()
        cold = [_subset_orbit_minima(g.n, automorphism_generators(g)) for g in graphs]
        canonical_form.cache_clear()
        for g in graphs:
            canonical_key(g)
        assert canonical._known_codes
        assert [_subset_orbit_minima(g.n, automorphism_generators(g))
                for g in graphs] == cold


class TestBatch:
    def test_matches_single(self, rng):
        graphs = [random_graph(rng, 9, p) for p in (0.2, 0.5, 0.8) for _ in range(8)]
        graphs += [_disjoint_cliques(3, 3), complement(_disjoint_cliques(3, 3)),
                   cycle_graph(9), empty_graph(9), complete_graph(9)]
        canonical_form.cache_clear()
        assert max_codes_batch(graphs, 9) == [canonical_key(g) for g in graphs]


def _nx(g):
    x = nx.Graph()
    x.add_nodes_from(range(g.n))
    x.add_edges_from(edge_pairs(g))
    return x


def _disjoint_cliques(k, t):
    return from_edges(k * t, [(i * t + a, i * t + b) for i in range(k)
                              for a, b in itertools.combinations(range(t), 2)])


def _disjoint_cycles(k, c):
    return from_edges(k * c, [(i * c + j, i * c + (j + 1) % c)
                              for i in range(k) for j in range(c)])


def _rook(a, b):
    """K_a x K_b: cells of an a-by-b board, adjacent when they share a line."""
    return from_edges(a * b, [(x, y) for x, y in itertools.combinations(range(a * b), 2)
                              if x // b == y // b or x % b == y % b])


def _biclique(a, b):
    return from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _blowup(c, t):
    """C_c[t]: every cycle vertex becomes a clique of t copies."""
    return replicate(cycle_graph(c), [t] * c)


def _unpruned_order(g):
    """The refinement search without orbit pruning, inert splitters or
    incremental codes: the first leaf of best code."""
    n = g.n
    if g.m in (0, n * (n - 1) // 2):
        return tuple(range(n))
    best = [-1, None]

    def search(cells):
        cells = oracles.restart_refine(g.adj, cells)
        if all(c.bit_count() == 1 for c in cells):
            order = [c.bit_length() - 1 for c in cells]
            code = oracles.order_code(g.adj, order)
            if code > best[0]:
                best[:] = [code, tuple(order)]
            return
        i = min((i for i, c in enumerate(cells) if c.bit_count() > 1),
                key=lambda i: cells[i].bit_count())
        for v in iter_bits(cells[i]):
            search(cells[:i] + [1 << v, cells[i] & ~(1 << v)] + cells[i + 1:])

    search([g.vertex_mask])
    return best[1]


def _first_leaf_code(g):
    """Code of the search's first leaf: the first vertex of the first
    smallest non-singleton cell, individualized until the partition is
    discrete."""
    cells = [g.vertex_mask]
    while True:
        cells = oracles.restart_refine(g.adj, cells)
        if all(c.bit_count() == 1 for c in cells):
            return oracles.order_code(g.adj, [c.bit_length() - 1 for c in cells])
        i = min((i for i, c in enumerate(cells) if c.bit_count() > 1),
                key=lambda i: cells[i].bit_count())
        low = cells[i] & -cells[i]
        cells = cells[:i] + [low, cells[i] ^ low] + cells[i + 1:]


def _all_classes(n):
    from qpkit.harness import enumerate_graphs
    return enumerate_graphs(n)


def _petersen():
    return from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)])


def _cube():
    return from_edges(8, [(u, u ^ 1 << k) for u in range(8) for k in range(3) if u < u ^ 1 << k])


class TestBranchImages:
    """Later branches that a twin target or pair cells map onto the first
    are recorded as automorphisms, not searched.  The former search, in
    oracles.py, must elect the same leaf."""

    SYMMETRIC = ([_disjoint_cliques(k, m) for k in range(1, 5) for m in range(1, 5)]
                 + [complement(_disjoint_cliques(3, 3)),  # K3,3,3
                    complement(_disjoint_cliques(6, 2)),  # the cocktail party graph
                    _blowup(5, 2), _blowup(5, 3), _rook(3, 3), _cube(), _petersen()])

    @staticmethod
    def _same_election(g):
        order, code, _ = oracles.former_canonical_refined(g)
        assert _canonical_refined(g)[:2] == (order, code), emit_graph6(g)
        assert canonical_form(g) == (graph6_of_code(g.n, code), order), emit_graph6(g)

    def test_every_class_up_to_eight(self):
        for n in range(9):
            for g in _all_classes(n):
                self._same_election(g)

    def test_relabeled_symmetric_graphs(self):
        rnd = random.Random(26)
        for g in self.SYMMETRIC:
            for _ in range(20):
                self._same_election(permute(g, rnd.sample(range(g.n), g.n)))

    def test_generators_give_the_former_orbits(self):
        # generator lists may differ from the former search's; the group
        # they generate may not
        for g in self.SYMMETRIC:
            gens = automorphism_generators(g)
            assert all(TestAutomorphisms._is_automorphism(g, gamma) for gamma in gens)
            assert len(gens) <= g.n - 1
            if g.n <= 12:
                assert _subset_orbit_minima(g.n, gens) == _subset_orbit_minima(
                    g.n, oracles.former_canonical_refined(g)[2])

    def test_fewer_refinements(self, monkeypatch):
        # refinements, one per search node that is not a leaf, over the
        # full searches of every class with n <= 7: a deterministic count,
        # pinned for both searches
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return _refine(*args)

        monkeypatch.setattr(canonical, "_refine", counting)
        counts = []
        for search in (_canonical_refined, oracles.former_canonical_refined):
            calls[0] = 0
            for n in range(8):
                for g in _all_classes(n):
                    search(g)
            counts.append(calls[0])
        assert counts == [2859, 4457]
