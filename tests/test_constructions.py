"""Wing families, replication, and the blow-up counterexample."""

import itertools

import pytest

import oracles
from qpkit.families import (
    FamilyGraph,
    FamilySpec,
    c5_blowup_with_apex,
    family_prime_clique,
    family_prime_independent_set,
    lovasz_prime_clique,
    odd_cycle_family,
    replicate,
)
from qpkit.graphs import (
    MAX_VERTICES,
    GraphFormatError,
    bit_members,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edges,
    induced_subgraph,
    path_graph,
)
from qpkit.harness import enumerate_graphs
from qpkit.invariants import (
    chromatic_number,
    clique_number,
    independence_number,
    is_block_graph,
    is_forest,
    is_perfect,
)
from qpkit.recognition import is_prime_clique, is_prime_independent_set


class TestFamilySpec:
    def test_validation(self):
        FamilySpec(5, (1,))
        FamilySpec(7, (1, 3, 7))
        with pytest.raises(ValueError):
            FamilySpec(4, (1,))  # even cycle
        with pytest.raises(ValueError):
            FamilySpec(3, (1,))  # too short
        with pytest.raises(ValueError):
            FamilySpec(5, ())  # no wings
        with pytest.raises(ValueError):
            FamilySpec(5, (2, 1))  # not increasing
        with pytest.raises(ValueError):
            FamilySpec(5, (6,))  # out of range

    def test_o_property(self):
        assert FamilySpec(7, (2, 5)).o == 2


class TestFamilyGraph:
    def test_sizes(self):
        for n in (5, 7):
            for o in range(1, n + 1):
                pos = tuple(range(1, o + 1))
                fg = odd_cycle_family(FamilySpec(n, pos))
                assert fg.graph.n == n + o
                assert fg.graph.m == n + 2 * o

    def test_seven_cycle_three_wings(self):
        fg = odd_cycle_family(FamilySpec(7, (1, 3, 5)))
        assert fg.graph.n == 10
        assert fg.graph.m == 13

    def test_rows_match_the_edge_list_build(self):
        # every spec with n <= 9: the direct rows against the validated
        # edge-list construction of the cycle plus two edges per wing
        specs = 0
        for n in (5, 7, 9):
            for o in range(1, n + 1):
                for pos in itertools.combinations(range(1, n + 1), o):
                    edges = list(cycle_graph(n).edges())
                    for rank, k in enumerate(pos):
                        edges += [(k - 1, n + rank), (k % n, n + rank)]
                    built = odd_cycle_family(FamilySpec(n, pos)).graph
                    assert built == from_edges(n + o, edges)
                    specs += 1
        assert specs == 31 + 127 + 511

    def test_vertex_count_is_capped(self):
        assert odd_cycle_family(FamilySpec(61, (1, 2, 3))).graph.n == MAX_VERTICES
        for n, pos in ((65, (1,)), (63, (1, 2)), (61, (1, 2, 3, 4))):
            with pytest.raises(GraphFormatError, match="outside 0..64"):
                odd_cycle_family(FamilySpec(n, pos))

    def test_wing_adjacency(self):
        fg = odd_cycle_family(FamilySpec(5, (2,)))
        w = fg.wing_vertex(2)
        assert w == 5
        # w_2 sees v_2 and v_3 and nothing else
        assert fg.graph.has_edge(w, fg.cycle_vertex(2))
        assert fg.graph.has_edge(w, fg.cycle_vertex(3))
        assert fg.graph.degree(w) == 2

    def test_last_wing_wraps(self):
        fg = odd_cycle_family(FamilySpec(5, (5,)))
        w = fg.wing_vertex(5)
        assert fg.graph.has_edge(w, fg.cycle_vertex(5))
        assert fg.graph.has_edge(w, fg.cycle_vertex(1))


class TestFamilyPrimeSets:
    def test_wing_triangle(self):
        fg = odd_cycle_family(FamilySpec(5, (1,)))
        pk = family_prime_clique(fg)
        assert bit_members(pk) == [0, 1, 5]  # v_1, v_2, w_1

    def test_wing_triangle_residue_block_graph(self):
        for n in (5, 7):
            for o in range(1, n + 1):
                for pos in itertools.combinations(range(1, n + 1), o):
                    fg = odd_cycle_family(FamilySpec(n, pos))
                    pk = family_prime_clique(fg)
                    residue = induced_subgraph(
                        fg.graph, fg.graph.vertex_mask & ~pk)
                    assert is_block_graph(residue), (n, pos)

    def test_wing_triangle_meets_every_mis_but_fails_membership(self):
        # the triangle hits every maximum independent set, yet its two cycle
        # vertices sit in no maximum independent set, so the full predicate
        # rejects it; recognition succeeds through other prime cliques
        fg = odd_cycle_family(FamilySpec(5, tuple(range(1, 6))))
        pk = family_prime_clique(fg)
        from qpkit.invariants import maximum_independent_sets
        for mis in maximum_independent_sets(fg.graph):
            assert mis & pk
        assert not is_prime_clique(fg.graph, pk)

    def test_full_wing_pi_formula(self):
        # all wings present: the wing over the last edge plus every second
        # cycle vertex starting at v_2
        fg = odd_cycle_family(FamilySpec(5, tuple(range(1, 6))))
        pi = family_prime_independent_set(fg)
        assert bit_members(pi) == [1, 3, fg.wing_vertex(5)]
        assert is_prime_independent_set(fg.graph, pi)

    def test_pi_always_valid_with_forest_residue(self):
        for n in (5, 7):
            for o in range(1, n + 1):
                for pos in itertools.combinations(range(1, n + 1), o):
                    fg = odd_cycle_family(FamilySpec(n, pos))
                    pi = family_prime_independent_set(fg)
                    assert is_prime_independent_set(fg.graph, pi), (n, pos)
                    residue = induced_subgraph(
                        fg.graph, fg.graph.vertex_mask & ~pi)
                    assert is_forest(residue), (n, pos)


class TestReplicate:
    def test_zero_deletes(self):
        g = path_graph(3)
        h = replicate(g, [1, 0, 1])
        assert h.n == 2
        assert h.m == 0

    def test_expansion_sizes(self):
        g = path_graph(3)
        h = replicate(g, [2, 1, 3])
        assert h.n == 6

    def test_replica_blocks_are_cliques(self):
        g = empty_graph(2)
        h = replicate(g, [3, 2])
        # replicas of one vertex form a clique, across stay non-adjacent
        assert h.has_edge(0, 1) and h.has_edge(1, 2)
        assert not h.has_edge(0, 3)

    def test_adjacent_origins_fully_joined(self):
        g = complete_graph(2)
        h = replicate(g, [2, 2])
        for u in (0, 1):
            for v in (2, 3):
                assert h.has_edge(u, v)

    def test_multiplicity_validation(self):
        with pytest.raises(ValueError):
            replicate(path_graph(2), [1])
        with pytest.raises(ValueError):
            replicate(path_graph(2), [1, -1])
        with pytest.raises(ValueError):
            replicate(path_graph(2), {0: 1})

    def test_mapping_form(self):
        g = path_graph(2)
        assert replicate(g, {0: 2, 1: 1}).n == 3

    def test_preserves_perfection_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                if not is_perfect(g):
                    continue
                for mult in itertools.product((0, 1, 2), repeat=n):
                    h = replicate(g, list(mult))
                    assert is_perfect(h), (oracles.graph_edges(g), mult)


class TestLovaszPrimeClique:
    def test_path3(self):
        assert bit_members(lovasz_prime_clique(path_graph(3))) == [0]

    def test_c4(self):
        assert bit_members(lovasz_prime_clique(cycle_graph(4))) == [0, 1]

    def test_kn_whole_vertex_set(self):
        for n in range(1, 6):
            g = complete_graph(n)
            assert lovasz_prime_clique(g) == g.vertex_mask

    def test_rejects_imperfect(self):
        with pytest.raises(ValueError):
            lovasz_prime_clique(cycle_graph(5))

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            lovasz_prime_clique(empty_graph(0))

    def test_predicate_on_all_perfect_graphs(self):
        count = 0
        for n in range(1, 7):
            for g in enumerate_graphs(n):
                if not is_perfect(g):
                    continue
                pk = lovasz_prime_clique(g)
                assert is_prime_clique(g, pk), oracles.graph_edges(g)
                count += 1
        assert count == 199  # perfect classes with 1 <= n <= 6

    def test_predicate_on_perfect_graphs_n7(self):
        perfect = [g for g in enumerate_graphs(7) if is_perfect(g)]
        assert len(perfect) == 906
        for g in perfect:
            assert is_prime_clique(g, lovasz_prime_clique(g)), oracles.graph_edges(g)

    def test_5k2_without_replication(self):
        # 32 maximum independent sets: replication would need 160 vertices
        g = from_edges(10, [(2 * i, 2 * i + 1) for i in range(5)])
        pk = lovasz_prime_clique(g)
        assert bit_members(pk) == [0, 1]
        assert is_prime_clique(g, pk)


class TestBlowupCounterexample:
    @pytest.mark.parametrize("t,n,omega,chi", [
        (1, 6, 3, 3),
        (2, 11, 5, 5),
        (3, 16, 7, 8),
    ])
    def test_frozen_invariants(self, t, n, omega, chi):
        g = c5_blowup_with_apex(t)
        assert g.n == n
        assert clique_number(g) == omega
        assert chromatic_number(g) == chi

    def test_t3_gap_against_oracle(self):
        g = c5_blowup_with_apex(3)
        edges = oracles.graph_edges(g)
        assert oracles.oracle_omega(g.n, edges) == 7
        assert oracles.oracle_chromatic(g.n, edges) == 8

    def test_clique_formula(self):
        # omega = 2t + 1: two adjacent blow-up classes plus the apex
        for t in (1, 2, 3):
            assert clique_number(c5_blowup_with_apex(t)) == 2 * t + 1

    def test_chromatic_formula(self):
        # chi = max(ceil(5t/2), 2t + 1)
        for t in (1, 2, 3):
            g = c5_blowup_with_apex(t)
            assert chromatic_number(g) == max(-(-5 * t // 2), 2 * t + 1)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            c5_blowup_with_apex(0)
