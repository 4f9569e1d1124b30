"""Process-wide memos return what an uncached recomputation returns."""

import itertools
import json
from dataclasses import replace

import pytest

import oracles
from conftest import edge_pairs, random_graph
from qpkit import recognition
from qpkit.canonical import canonical_form, canonical_key, key_graph
from qpkit.graphs import (
    bit_members,
    complement,
    cycle_graph,
    from_edges,
    mask_of,
    parse_graph6,
)
from qpkit.harness import enumerate_graphs
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
    certificate_from_json,
    certificate_to_json,
    is_prime_independent_set,
    verify_certificate,
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


@pytest.fixture
def records(monkeypatch):
    """An empty root record for one test, the process's own restored after it."""
    monkeypatch.setattr(recognition, "_root_records", {})
    return recognition._root_records


def _both(g, cert):
    """verify_certificate, then certificate_to_json (TypeError when it raises that)."""
    check = verify_certificate(g, cert)
    try:
        return check, certificate_to_json(g, cert)
    except TypeError:
        return check, TypeError


def _cold(g, cert):
    """_both with the root record cleared before each call, and put back after."""
    records = recognition._root_records
    saved = dict(records)
    records.clear()
    check = verify_certificate(g, cert)
    records.clear()
    text = _both(g, cert)[1]
    records.clear()
    records.update(saved)
    return check, text


def _accepted_up_to(n_max):
    engine = RecognitionEngine()
    return [(g, out.certificate) for n in range(n_max + 1) for g in enumerate_graphs(n)
            for out in [engine.recognize(g)] if out.quasiperfect]


def test_root_records_match_recomputation(records):
    pairs = _accepted_up_to(6)
    assert len(pairs) == 202
    for g, cert in pairs:
        doc = {"schema": "qpcert-v2", "key": cert.key.decode(), "order": list(cert.order),
               "nodes": {k.decode(): [bit_members(pi), bit_members(pk), a.decode(), b.decode()]
                         for k, (pi, pk, a, b) in cert.nodes.items()}}
        check, text = _cold(g, cert)
        assert check and text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
        for _ in range(3):  # the third call of each is answered from the record
            assert verify_certificate(g, cert) == check
            assert certificate_to_json(g, cert) == text
        record = records[cert.key]
        assert record.verified and record.text is not None


def _largest():
    """The accepted class with n <= 6 whose certificate has the most nodes."""
    return max(_accepted_up_to(6), key=lambda pair: len(pair[1].nodes))


def _recorded(records, g, cert):
    """g and cert, after enough calls that cert's root record is verified and written."""
    for _ in range(2):
        assert verify_certificate(g, cert)
        certificate_to_json(g, cert)
    assert records[cert.key].verified and records[cert.key].text is not None
    return g, cert


def test_a_node_replaced_in_place_is_checked_anew(records):
    g, cert = _recorded(records, *_largest())
    pi, pk, pi_child, pk_child = cert.nodes[cert.key]
    cert.nodes[cert.key] = (pi | pk, pk, pi_child, pk_child)
    check, text = _cold(g, cert)
    assert (check.ok, check.node) == (False, cert.key)
    for _ in range(3):
        assert _both(g, cert) == (check, text)


def test_equal_or_larger_node_sets_never_match(records):
    g, cert = _recorded(records, *_largest())
    pi, pk, pi_child, pk_child = cert.nodes[cert.key]
    floats = {**cert.nodes, cert.key: (float(pi), pk, pi_child, pk_child)}
    assert floats == cert.nodes
    assert b"D~{" not in cert.nodes
    extra = {**cert.nodes, b"D~{": (1, 31, b"C~", b"?")}  # K5's node
    for nodes, reason, node in ((extra, "unreachable-node", b"D~{"),
                                (floats, "malformed-node", cert.key)):
        _recorded(records, g, cert)
        variant = replace(cert, nodes=nodes)
        check, text = _cold(g, variant)
        assert (check.reason, check.node) == (reason, node)
        for _ in range(3):
            assert _both(g, variant) == (check, text)


def test_list_valued_nodes_are_never_recorded(records):
    g, cert = _recorded(records, *_largest())
    lists = replace(cert, nodes={k: list(node) for k, node in cert.nodes.items()})
    check, text = _cold(g, lists)
    assert check
    for _ in range(3):
        assert _both(g, lists) == (check, text)
    assert not any(type(node) is list for node in records[cert.key].nodes.values())
    lists.nodes[cert.key][0] = 0  # in place: the same list objects, another node
    check, text = _cold(g, lists)
    assert (check.reason, check.node) == ("empty-prime-independent-set", cert.key)
    for _ in range(3):
        assert _both(g, lists) == (check, text)


def test_a_certificate_read_back_matches(records):
    g, cert = _recorded(records, *_largest())
    text = certificate_to_json(g, cert)
    g2, cert2 = certificate_from_json(text)
    assert g2 == g and cert2.nodes == cert.nodes
    assert not any(cert2.nodes[k] is node for k, node in cert.nodes.items())
    for _ in range(3):
        for h, c in ((g2, cert2), (g, cert)):
            assert verify_certificate(h, c)
            assert certificate_to_json(h, c) == text


def test_keys_other_than_bytes_are_never_recorded(records):
    g, cert = _recorded(records, *_largest())
    text = certificate_to_json(g, cert)
    mutable = replace(cert, key=bytearray(cert.key))  # unhashable, so never a record key
    for _ in range(3):
        assert certificate_to_json(g, mutable) == text
        assert verify_certificate(g, mutable).reason == "undecodable-key"
    assert all(type(key) is bytes for key in records)
