"""Exact invariants validated against independent brute-force oracles."""

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import edge_pairs, random_graph
from qpkit.graphs import (
    bit_members,
    complement,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    path_graph,
)
from qpkit.harness import enumerate_graphs
from qpkit.invariants import (
    PerfectionChecker,
    PerfectionLimitError,
    chromatic_number,
    clique_number,
    greedy_coloring_bound,
    independence_number,
    invariant_triple,
    is_block_graph,
    is_forest,
    is_perfect,
    maximal_cliques,
    maximum_cliques,
    maximum_independent_sets,
    optimal_colorings,
)


class TestCliqueAndIndependence:
    def test_k0(self):
        g = empty_graph(0)
        assert clique_number(g) == 0
        assert independence_number(g) == 0
        assert maximum_cliques(g) == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_complete(self, n):
        g = complete_graph(n)
        assert clique_number(g) == n
        assert independence_number(g) == 1
        assert maximum_cliques(g) == [g.vertex_mask]

    def test_c5(self):
        g = cycle_graph(5)
        assert clique_number(g) == 2
        assert len(maximum_cliques(g)) == 5  # the five edges

    def test_oracle_sweep(self):
        for n in range(7):
            for g in enumerate_graphs(n):
                edges = oracles.graph_edges(g)
                want = oracles.oracle_max_cliques(n, edges)
                got = {frozenset(bit_members(m)) for m in maximum_cliques(g)}
                assert got == want, (n, edges)

    @staticmethod
    def _assert_maximal_cliques(g):
        got = [frozenset(bit_members(q)) for q in maximal_cliques(g)]
        assert len(got) == len(set(got)), oracles.graph_edges(g)  # each listed once
        assert sorted(got, key=sorted) == oracles.oracle_maximal_cliques(
            g.n, oracles.graph_edges(g)), oracles.graph_edges(g)

    def test_maximal_cliques_every_class_up_to_six(self):
        for n in range(7):
            for g in enumerate_graphs(n):
                self._assert_maximal_cliques(g)

    def test_maximal_cliques_random_up_to_ten(self, rng):
        for _ in range(60):
            n = rng.randrange(0, 11)
            self._assert_maximal_cliques(random_graph(rng, n, rng.choice((0.2, 0.5, 0.8))))

    def test_max_independent_dual(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 9))
            edges = oracles.graph_edges(g)
            want = oracles.oracle_max_independent(g.n, edges)
            got = {frozenset(bit_members(m))
                   for m in maximum_independent_sets(g)}
            assert got == want


class TestChromatic:
    @pytest.mark.parametrize("g,chi", [
        (empty_graph(0), 0),
        (empty_graph(3), 1),
        (path_graph(4), 2),
        (cycle_graph(5), 3),
        (cycle_graph(6), 2),
        (complete_graph(5), 5),
    ])
    def test_known(self, g, chi):
        assert chromatic_number(g) == chi

    def test_oracle_sweep(self):
        for n in range(8):
            for g in enumerate_graphs(n):
                edges = oracles.graph_edges(g)
                assert chromatic_number(g) == oracles.oracle_chromatic(n, edges)

    def test_random_oracle(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 10),
                             rng.choice([0.3, 0.6]))
            edges = oracles.graph_edges(g)
            assert chromatic_number(g) == oracles.oracle_chromatic(g.n, edges)

    def test_greedy_bound_sound(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randrange(0, 10))
            assert chromatic_number(g) <= greedy_coloring_bound(g)

    def test_chi_lower_bound_property(self, rng):
        # chi >= n / alpha for any graph
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 9))
            assert chromatic_number(g) * independence_number(g) >= g.n

    def test_triple(self):
        t = invariant_triple(cycle_graph(5))
        assert (t.omega, t.alpha, t.chi) == (2, 2, 3)


class TestOptimalColorings:
    @staticmethod
    def _partition(vec):
        classes = {}
        for v, c in enumerate(vec):
            classes.setdefault(c, set()).add(v)
        return frozenset(frozenset(s) for s in classes.values())

    def test_k0_single_empty(self):
        assert list(optimal_colorings(empty_graph(0))) == [()]

    def test_c5_all_proper_and_exact(self):
        g = cycle_graph(5)
        seen = set()
        for vec in optimal_colorings(g):
            assert len(set(vec)) == 3
            for u, v in edge_pairs(g):
                assert vec[u] != vec[v]
            seen.add(self._partition(vec))
        assert len(seen) == 5  # each partition exactly once

    def test_partitions_against_brute_force(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randrange(1, 7))
            chi = chromatic_number(g)
            brute = set()
            for vec in itertools.product(range(chi), repeat=g.n):
                if len(set(vec)) != chi:
                    continue
                if any(vec[u] == vec[v] for u, v in edge_pairs(g)):
                    continue
                brute.add(self._partition(vec))
            got = [self._partition(vec) for vec in optimal_colorings(g)]
            assert len(got) == len(set(got))  # no partition repeats
            assert set(got) == brute


class TestStructurePredicates:
    def test_forest(self):
        assert is_forest(path_graph(5))
        assert is_forest(empty_graph(4))
        assert not is_forest(cycle_graph(3))
        assert is_forest(from_edges(5, [(0, 1), (2, 3)]))
        # isolated vertices are components too: K3 + 2K1 has 3 edges, n - c = 2
        assert not is_forest(from_edges(5, [(0, 1), (1, 2), (0, 2)]))

    def test_block_graph_examples(self):
        assert is_block_graph(complete_graph(4))
        assert is_block_graph(path_graph(5))
        # two triangles sharing a vertex
        g = from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert is_block_graph(g)
        assert not is_block_graph(cycle_graph(4))
        assert not is_block_graph(cycle_graph(5))
        # K4 minus an edge, plus an isolated vertex
        assert not is_block_graph(from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]))

    @staticmethod
    def _networkx_answers(g):
        """(is_forest, is_block_graph) by networkx: block graph iff every
        biconnected component induces a clique; K0 counts as a forest."""
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(edge_pairs(g))
        forest = g.n == 0 or nx.is_forest(h)
        block = all(
            all(h.has_edge(u, v) for u, v in itertools.combinations(comp, 2))
            for comp in nx.biconnected_components(h))
        return forest, block

    def test_block_graph_against_networkx(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.2, 0.4]))
            assert is_block_graph(g) == self._networkx_answers(g)[1]

    def test_all_classes_against_networkx(self):
        for n in range(8):
            for g in enumerate_graphs(n):
                assert (is_forest(g), is_block_graph(g)) == self._networkx_answers(g), g

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12), st.data())
    def test_random_against_networkx(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        g = from_edges(n, edges)
        assert (is_forest(g), is_block_graph(g)) == self._networkx_answers(g)


class TestPerfection:
    def test_small_cases(self):
        assert is_perfect(empty_graph(0))
        assert is_perfect(path_graph(4))
        assert is_perfect(complete_graph(5))
        assert not is_perfect(cycle_graph(5))
        assert not is_perfect(cycle_graph(7))

    def test_oracle_sweep(self):
        checker = PerfectionChecker()
        for n in range(7):
            for g in enumerate_graphs(n):
                edges = oracles.graph_edges(g)
                assert checker.is_perfect(g) == oracles.oracle_is_perfect(
                    n, edges), edges

    def test_against_hereditary_definition(self):
        for n in range(8):
            for g in enumerate_graphs(n):
                edges = oracles.graph_edges(g)
                assert is_perfect(g) == oracles.hereditary_is_perfect(n, edges), edges

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10), st.data())
    def test_random_against_hereditary_definition(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                          if pairs else st.just([]))
        assert is_perfect(from_edges(n, edges)) == oracles.hereditary_is_perfect(n, edges)

    @pytest.mark.parametrize("k", range(5, 11))
    def test_cycles_and_their_complements(self, k):
        # C_k is an odd hole and its complement an odd antihole exactly when k is odd
        assert is_perfect(cycle_graph(k)) == (k % 2 == 0)
        assert is_perfect(complement(cycle_graph(k))) == (k % 2 == 0)

    def test_named_graphs(self):
        petersen = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                              + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                              + [(i, i + 5) for i in range(5)])
        k33 = from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        rook = from_edges(9, [(x, y) for x, y in itertools.combinations(range(9), 2)
                              if x // 3 == y // 3 or x % 3 == y % 3])
        assert not is_perfect(petersen)
        assert is_perfect(k33)
        assert is_perfect(rook)

    def test_complement_closure(self, rng):
        # weak perfect graph theorem as a property check
        checker = PerfectionChecker()
        for _ in range(40):
            g = random_graph(rng, rng.randrange(0, 8))
            assert checker.is_perfect(g) == checker.is_perfect(complement(g))

    def test_limit(self):
        with pytest.raises(PerfectionLimitError):
            is_perfect(empty_graph(11), limit=10)
        checker = PerfectionChecker(limit=12)
        assert checker.is_perfect(empty_graph(11))
