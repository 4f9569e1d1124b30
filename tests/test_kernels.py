"""The word-level kernels against their former one-bit-at-a-time bodies.

Each kernel must give exactly what its former body in oracles.py gives:
the same rows, bounds, verdicts, list orders and error messages.  The
inputs are every class with n <= 7 and its complement, and seeded random
graphs with n <= 16 (n = 40 and 64 for induced subgraphs).
"""

import random

import pytest

import oracles
from conftest import random_graph
from qpkit.graphs import (
    GraphFormatError,
    bit_members,
    complement,
    cycle_graph,
    emit_graph6,
    from_edges,
    induced_subgraph,
    parse_graph6,
    permute,
)
from qpkit.harness import enumerate_graphs, minimal_qp_supergraph
from qpkit.invariants import (
    _has_odd_hole,
    _k_colorable,
    chromatic_number,
    greedy_coloring_bound,
    maximum_cliques,
)
from qpkit.recognition import RecognitionEngine, _transversal_sets


def _classes():
    for n in range(8):
        for g in enumerate_graphs(n):
            yield g
            yield complement(g)


def _random_graphs():
    rnd = random.Random(21)
    for n in range(1, 17):
        for p in (0.2, 0.5, 0.8):
            yield random_graph(rnd, n, p)


GRAPHS = [*_classes(), *_random_graphs()]


class TestInducedSubgraph:
    def test_every_mask_up_to_six(self):
        for g in GRAPHS:
            if g.n <= 6:
                for mask in range(1 << g.n):
                    assert induced_subgraph(g, mask).adj == \
                        oracles.former_induced_subgraph(g.adj, mask)

    def test_sampled_masks(self):
        rnd = random.Random(7)
        big = [random_graph(rnd, n, p) for n in (40, 64) for p in (0.2, 0.5, 0.8)]
        for g in [*GRAPHS, *big]:
            full = g.vertex_mask
            masks = [full, 0, *(full & ~(1 << v) for v in range(g.n)),
                     *(rnd.getrandbits(g.n) for _ in range(8)),
                     *(full & ~rnd.getrandbits(g.n) & ~rnd.getrandbits(g.n) for _ in range(4))]
            for mask in masks:
                assert induced_subgraph(g, mask).adj == \
                    oracles.former_induced_subgraph(g.adj, mask)


class TestColoring:
    def test_greedy_bound(self):
        for g in GRAPHS:
            assert greedy_coloring_bound(g) == oracles.former_greedy_coloring_bound(g.adj)

    def test_greedy_bound_follows_the_vertex_order(self):
        # the crown graph on 8 vertices, u_i = 2i and v_i = 2i + 1 adjacent
        # unless i = j: every degree is 3, so vertex order decides, and each
        # pair u_i, v_i opens a color; listing the u_i first needs two
        crown = from_edges(8, [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j])
        assert chromatic_number(crown) == 2
        assert greedy_coloring_bound(crown) == 4
        assert greedy_coloring_bound(permute(crown, [0, 4, 1, 5, 2, 6, 3, 7])) == 2

    def test_k_colorable(self):
        for g in GRAPHS:
            if g.n == 0:
                continue
            seed = bit_members(maximum_cliques(g)[0])
            for k in range(len(seed), g.n + 1):
                assert _k_colorable(g, k, seed) == oracles.former_k_colorable(g.adj, k, seed)


class TestPrimeSetsAndHoles:
    def test_transversal_sets_in_order(self):
        for g in GRAPHS:
            for h in (g, complement(g)):
                cliques = maximum_cliques(h)
                assert _transversal_sets(h, cliques) == \
                    oracles.former_transversal_sets(h.adj, cliques)

    def test_odd_holes(self):
        for g in GRAPHS:
            assert _has_odd_hole(g) == oracles.former_has_odd_hole(g.adj)


class TestGraph6Decode:
    def test_decodes_every_graph(self):
        rnd = random.Random(3)
        big = [random_graph(rnd, n, 0.5) for n in (40, 62, 63, 64)]
        for g in [*GRAPHS, *big]:
            text = emit_graph6(g)
            assert (g.n, parse_graph6(text).adj) == oracles.former_parse_graph6(text)

    def test_same_outcome_on_arbitrary_text(self):
        rnd = random.Random(5)
        texts = [b"", b"~", b"~~", b"~?@", b"@", b"A_", b"A`", b"B~", b"Bw", b">>graph6<<A_"]
        for _ in range(3000):
            size = rnd.randrange(1, 5) if rnd.random() < 0.5 else rnd.randrange(5, 16)
            texts.append(bytes(rnd.choice(range(60, 128)) if rnd.random() < 0.05
                               else rnd.randrange(63, 127) for _ in range(size)))
        outcomes = set()
        for text in texts:
            try:
                want = oracles.former_parse_graph6(text)
            except ValueError as exc:
                with pytest.raises(GraphFormatError) as got:
                    parse_graph6(text)
                assert str(got.value) == str(exc)
                outcomes.add(str(exc).split()[0])
            else:
                assert (want[0], parse_graph6(text).adj) == want
                outcomes.add("decoded")
        # every kind of failure, and successes, were met
        assert outcomes == {"byte", "empty", "graph6", "truncated", "vertex",
                            "expected", "nonzero", "decoded"}


class TestSupergraphOrbits:
    def test_orbit_minima_give_the_exhaustive_witness(self):
        rnd = random.Random(11)
        engine = RecognitionEngine()
        rejected = [g for g in enumerate_graphs(7) if not engine.is_quasiperfect(g)]
        relabeled = [permute(g, rnd.sample(range(g.n), g.n)) for g in rnd.sample(rejected, 20)]
        cycles = [cycle_graph(7), cycle_graph(9), complement(cycle_graph(7))]
        for g in [*rejected, *relabeled, *cycles]:
            assert minimal_qp_supergraph(g, 2, engine=engine) == \
                oracles.exhaustive_qp_supergraph(g, 2, engine)
        assert len(rejected) == 54

    def test_two_added_vertices(self):
        # two disjoint C5s need two added vertices, so the second step
        # prunes by the automorphisms of a graph that holds the first
        two_c5 = from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
        engine = RecognitionEngine()
        found = minimal_qp_supergraph(two_c5, 2, engine=engine)
        assert found is not None and found[1] == 2
        assert found == oracles.exhaustive_qp_supergraph(two_c5, 2, engine)
