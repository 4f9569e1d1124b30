"""Process-wide memos return what an uncached recomputation returns."""

import itertools

import oracles
from conftest import edge_pairs, random_graph
from qpkit.canonical import canonical_form, canonical_key, key_graph
from qpkit.graphs import complement, cycle_graph, from_edges, mask_of, parse_graph6
from qpkit.invariants import (
    _maximum_cliques,
    chromatic_number,
    clique_number,
    independence_number,
    maximum_cliques,
    maximum_independent_sets,
)
from qpkit.recognition import (
    RecognitionEngine,
    _complement_form,
    _complement_node,
    _verify_node,
    is_prime_independent_set,
)


def _random_graphs(rng, count=60):
    for _ in range(count):
        n = rng.randint(0, 10)
        yield random_graph(rng, n, rng.choice((0.25, 0.5, 0.75)))


def _sorted_masks(cliques):
    return sorted(mask_of(c) for c in cliques)


def test_graph_memos_match_recomputation(rng):
    for g in _random_graphs(rng):
        edges = edge_pairs(g)
        co_edges = [p for p in itertools.combinations(range(g.n), 2) if p not in set(edges)]
        key = canonical_key(g)
        for _ in range(2):  # a miss, then a hit
            assert complement(g) == from_edges(g.n, co_edges)
            assert key_graph(key) == parse_graph6(key.decode("ascii"))
            assert maximum_cliques(g) == _sorted_masks(oracles.oracle_max_cliques(g.n, edges))
            assert maximum_independent_sets(g) == _sorted_masks(
                oracles.oracle_max_cliques(g.n, co_edges))
            assert clique_number(g) == oracles.oracle_omega(g.n, edges)
            assert independence_number(g) == oracles.oracle_omega(g.n, co_edges)
            assert _maximum_cliques(g) == _maximum_cliques.__wrapped__(g)
            assert canonical_form(g) == canonical_form.__wrapped__(g)


def test_certificate_memos_match_recomputation(rng):
    engine = RecognitionEngine(limit=10)
    checked = 0
    for g in _random_graphs(rng):
        out = engine.recognize(g)
        if not out.quasiperfect:
            continue
        for key, node in out.certificate.nodes.items():
            for _ in range(2):
                assert _verify_node(key, node) == _verify_node.__wrapped__(key, node)
                assert _complement_node(key, node) == _complement_node.__wrapped__(key, node)
                assert _complement_form(key) == _complement_form.__wrapped__(key)
            checked += 1
    assert checked > 20


def test_mutating_a_returned_clique_list_changes_no_later_answer():
    g = cycle_graph(5)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    cliques = maximum_cliques(g)
    assert cliques == sorted(mask_of(e) for e in edges)
    cliques[:] = [0b11111]
    stables = maximum_independent_sets(g)
    stables.clear()
    assert maximum_cliques(g) == sorted(mask_of(e) for e in edges)
    assert len(maximum_independent_sets(g)) == 5
    assert clique_number(g) == 2 and independence_number(g) == 2
    assert chromatic_number(g) == 3
    assert not is_prime_independent_set(g, 0b00001)
