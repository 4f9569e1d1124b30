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
    permute,
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
    first = _accepted_up_to(6)
    assert len(first) == 202
    assert records == dict.fromkeys((cert.key for _, cert in first), None)
    pairs = _accepted_up_to(6)  # each root's second materialization records it
    for (g, cert), (_, earlier) in zip(pairs, first):
        record = records[cert.key]
        assert record.nodes is cert.nodes and cert.nodes == earlier.nodes
        doc = {"schema": "qpcert-v2", "key": cert.key.decode(), "order": list(cert.order),
               "nodes": {k.decode(): [bit_members(pi), bit_members(pk), a.decode(), b.decode()]
                         for k, (pi, pk, a, b) in cert.nodes.items()}}
        check, text = _cold(g, cert)
        assert check and text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
        for _ in range(3):  # the second call of each is answered from the record
            assert verify_certificate(g, cert) == check
            assert certificate_to_json(g, cert) == text
        assert record.verified and record.text is not None


def test_engine_certificate_nodes_are_read_only(records):
    cert = RecognitionEngine().recognize(parse_graph6("Ehf?")).certificate
    node = cert.nodes[cert.key]
    with pytest.raises(TypeError):
        cert.nodes[cert.key] = (0, *node[1:])
    copy = dict(cert.nodes)
    copy[cert.key] = (0, *node[1:])
    assert cert.nodes[cert.key] is node


def test_a_class_met_again_shares_one_mapping(records):
    g = parse_graph6("Ehf?")
    engine = RecognitionEngine()
    first = engine.recognize(g).certificate
    assert records == {first.key: None}
    copies = [g, permute(g, [5, 4, 3, 2, 1, 0])]
    second, third = (engine.recognize(h).certificate for h in copies)
    assert records[first.key].nodes is second.nodes is third.nodes
    assert second.nodes == first.nodes and second.nodes is not first.nodes
    for h, cert in zip(copies, (second, third)):
        assert verify_certificate(h, cert)


def _largest():
    """The accepted class with n <= 6 whose certificate has the most nodes."""
    return max(_accepted_up_to(6), key=lambda pair: len(pair[1].nodes))


def _recorded(records):
    """_largest's class and its certificate from the record, verified and written."""
    g, _ = _largest()
    cert = RecognitionEngine().recognize(g).certificate
    assert verify_certificate(g, cert)
    certificate_to_json(g, cert)
    record = records[cert.key]
    assert record.nodes is cert.nodes and record.verified and record.text is not None
    return g, cert


def _float_root(cert):
    pi, pk, pi_child, pk_child = cert.nodes[cert.key]
    return replace(cert, nodes={**cert.nodes, cert.key: (float(pi), pk, pi_child, pk_child)})


def _tampered_root(cert):
    pi, pk, pi_child, pk_child = cert.nodes[cert.key]
    return replace(cert, nodes={**cert.nodes, cert.key: (pi | pk, pk, pi_child, pk_child)})


# caller-made certificates of a recorded root: how each is built, and the
# (reason, node) verify_certificate gives it, "root" standing for its key
CALLER_MADE = {
    "copy": (lambda c: replace(c, nodes=dict(c.nodes)), None, None),
    "lists": (lambda c: replace(c, nodes={k: list(v) for k, v in c.nodes.items()}), None, None),
    "tampered": (_tampered_root, "pi-vertex-outside-maximum-cliques", "root"),
    "float": (_float_root, "malformed-node", "root"),
    "extra-node": (lambda c: replace(c, nodes={**c.nodes, b"D~{": (1, 31, b"C~", b"?")}),
                   "unreachable-node", b"D~{"),  # K5's node
    "bytearray-key": (lambda c: replace(c, key=bytearray(c.key)), "undecodable-key", "root"),
}


def _counted(monkeypatch, name):
    """Replace recognition.<name> with a wrapper; returns its call count list."""
    calls = [0]
    inner = getattr(recognition, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(recognition, name, wrapper)
    return calls


@pytest.mark.parametrize("variant", list(CALLER_MADE))
def test_caller_made_nodes_are_walked_and_written_anew(records, monkeypatch, variant):
    g, cert = _recorded(records)
    build, reason, node = CALLER_MADE[variant]
    other = build(cert)
    walks, writes = _counted(monkeypatch, "_well_formed"), _counted(monkeypatch, "bit_members")
    expected = (reason, cert.key if node == "root" else node)
    for edited in (False, True):
        if edited:  # the caller's own mapping, changed in place after use
            if not isinstance(other.nodes, dict):
                break
            root = other.nodes[other.key]
            if isinstance(root, list):
                root[0] = 0
            else:
                other.nodes[other.key] = (0, *root[1:])
            expected = ("empty-prime-independent-set", cert.key)
        cold = _cold(g, other)
        assert (cold[0].reason, cold[0].node) == expected
        for _ in range(3):
            before = walks[0], writes[0]
            assert _both(g, other) == cold
            assert walks[0] > before[0] or reason == "undecodable-key"
            assert writes[0] > before[1]
    record = records[cert.key]
    assert len(records) == 202  # no caller-made certificate adds a root
    assert record.nodes is cert.nodes and record.verified and record.text is not None


def test_a_certificate_read_back_matches(records):
    g, cert = _recorded(records)
    text = certificate_to_json(g, cert)
    g2, cert2 = certificate_from_json(text)
    assert g2 == g and cert2.nodes == cert.nodes
    assert not any(cert2.nodes[k] is node for k, node in cert.nodes.items())
    for _ in range(3):
        for h, c in ((g2, cert2), (g, cert)):
            assert verify_certificate(h, c)
            assert certificate_to_json(h, c) == text
