"""Memos and certificate facts return what an uncached recomputation returns."""

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
    complement_certificate,
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


def _both(g, cert):
    """verify_certificate, then certificate_to_json (TypeError when it raises that)."""
    check = verify_certificate(g, cert)
    try:
        return check, certificate_to_json(g, cert)
    except TypeError:
        return check, TypeError


def _cold(g, cert):
    """_both with no facts in the store cert's nodes view, if any, put back after."""
    store = getattr(cert.nodes, "_store", None)
    if store is None:
        return _both(g, cert)
    saved = store.verified, store.texts
    store.verified, store.texts = set(), {}
    try:
        return _both(g, cert)
    finally:
        store.verified, store.texts = saved


def _memo_walk(memo, key):
    """The nodes key reaches in an engine memo, as a dict in walk order (pk_child first)."""
    nodes = {}
    stack = [key]
    while stack:
        k = stack.pop()
        if k == b"?" or k in nodes:
            continue
        nodes[k] = memo[k]
        stack += nodes[k][2:]
    return nodes


def _accepted_up_to(n_max, engine=None):
    engine = engine or RecognitionEngine()
    return [(g, out.certificate) for n in range(n_max + 1) for g in enumerate_graphs(n)
            for out in [engine.recognize(g)] if out.quasiperfect]


def test_views_match_recomputation():
    engine = RecognitionEngine()
    store = engine._store
    pairs = _accepted_up_to(6, engine)
    assert len(pairs) == 202
    for g, cert in pairs:
        assert type(cert.nodes) is recognition._NodesView
        walk = _memo_walk(store.memo, cert.key)
        assert list(cert.nodes.items()) == list(walk.items())  # the same order
        assert cert.nodes == walk and len(cert.nodes) == len(walk)
        doc = {"schema": "qpcert-v2", "key": cert.key.decode(), "order": list(cert.order),
               "nodes": {k.decode(): [bit_members(pi), bit_members(pk), a.decode(), b.decode()]
                         for k, (pi, pk, a, b) in walk.items()}}
        check, text = _cold(g, cert)
        assert check and text == json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"
        for _ in range(3):  # the second call of each is answered from the store
            assert verify_certificate(g, cert) == check
            assert certificate_to_json(g, cert) == text
        assert cert.key in store.verified or cert.key == b"?"
        assert store.texts[cert.key] == json.dumps(
            doc["nodes"], separators=(",", ":"), sort_keys=True)
    # a later certificate of a class is a new view of the same store, equal
    # to the first and answered from the same facts
    for (g, cert), (_, again) in zip(pairs, _accepted_up_to(6, engine)):
        assert again.nodes is not cert.nodes and again.nodes == cert.nodes
        assert _both(g, again) == _both(g, cert)


def test_a_view_walks_nothing_until_read():
    # verification and complementing read the store, not the view
    engine = RecognitionEngine()
    g, _ = _largest()
    cert = engine.recognize(g).certificate
    assert cert.nodes._keys is None
    assert verify_certificate(g, cert) and complement_certificate(cert)
    assert cert.nodes._keys is None
    assert len(cert.nodes) == len(_memo_walk(engine._store.memo, cert.key)) > 1
    assert cert.nodes._keys is not None


def test_engine_certificate_nodes_are_read_only():
    cert = RecognitionEngine().recognize(parse_graph6("Ehf?")).certificate
    dual = complement_certificate(cert)
    for c in (cert, dual):
        node = c.nodes[c.key]
        with pytest.raises(TypeError):
            c.nodes[c.key] = (0, *node[1:])
        copy = dict(c.nodes)
        copy[c.key] = (0, *node[1:])
        assert c.nodes[c.key] is node
    with pytest.raises(KeyError):  # in the memo, but not reached from the root
        cert.nodes[b"D~{"]


def test_a_class_met_again_shares_one_mapping():
    g = parse_graph6("Ehf?")
    engine = RecognitionEngine()
    first = engine.recognize(g).certificate
    copies = [g, permute(g, [5, 4, 3, 2, 1, 0])]
    second, third = (engine.recognize(h).certificate for h in copies)
    assert first.nodes._store is second.nodes._store is third.nodes._store is engine._store
    assert second.nodes == first.nodes and second.nodes is not first.nodes
    for h, cert in zip(copies, (second, third)):
        assert verify_certificate(h, cert)
    duals = [complement_certificate(c) for c in (first, second, third)]
    assert duals[0].nodes._store is duals[2].nodes._store is engine._store.dual
    assert all(d.nodes == duals[0].nodes for d in duals)


def test_each_class_is_checked_once(monkeypatch):
    pairs = _accepted_up_to(6)
    duals = [(complement(g), complement_certificate(cert)) for g, cert in pairs]
    calls = _counted(monkeypatch, "_verify_node")
    walks = _counted(monkeypatch, "_well_formed")
    for _ in range(2):
        for h, cert in pairs + duals:
            assert verify_certificate(h, cert)
    # each class once as an engine node and once as a dual node, each
    # shape-tested by the walk that checks it
    assert calls[0] == len({k for _, c in pairs for k in c.nodes}) + \
        len({k for _, c in duals for k in c.nodes}) == 2 * 201
    assert walks[0] == calls[0]


def test_a_bad_memo_node_fails_as_the_walk_does(monkeypatch):
    # with the memo tampered at one node, or at every node below the root,
    # a view reports the (reason, node) of the walk over a dict copy; the
    # store's facts are warmed first by every certificate that does not
    # reach the tampered keys
    engine = RecognitionEngine()
    store = engine._store
    pairs = _accepted_up_to(6, engine)
    g, cert = max(pairs, key=lambda pair: len(pair[1].nodes))
    keys = list(cert.nodes)
    targets = [[k] for k in keys] + [keys[1:], keys[2::2]]
    for i, tampered in enumerate(targets):
        store.verified.clear()
        store.texts.clear()
        with monkeypatch.context() as m:
            for k in tampered:
                pi, pk, pi_child, pk_child = store.memo[k]
                bad = (0, pk, pi_child, pk_child) if i % 2 else (pi, 0, pi_child, pk_child)
                m.setitem(store.memo, k, bad)
            for h, other in pairs:
                if not set(tampered) & set(other.nodes):
                    assert verify_certificate(h, other)
            view = engine.recognize(g).certificate
            walked = verify_certificate(g, replace(view, nodes=dict(view.nodes)))
            check = verify_certificate(g, view)
            assert not check and (check.reason, check.node) == (walked.reason, walked.node)
    assert verify_certificate(g, cert)


def test_double_complement_is_a_view_of_the_engine_store():
    # an engine's two stores are each other's dual, so a dual view
    # complements to a view of the engine store, and neither memo changes
    engine = RecognitionEngine()
    store = engine._store
    pairs = _accepted_up_to(6, engine)
    duals = [complement_certificate(cert) for _, cert in pairs]
    assert store.dual.dual is store
    held = dict(store.memo), dict(store.dual.memo)
    for (g, cert), dual in zip(pairs, duals):
        back = complement_certificate(dual)
        assert type(back.nodes) is recognition._NodesView and back.nodes._store is store
        assert back.key == cert.key and back.nodes == cert.nodes
        assert verify_certificate(g, back)
    assert (dict(store.memo), dict(store.dual.memo)) == held


def test_complementing_a_dual_labels_each_key_once(monkeypatch):
    # the 1,192 dual certificates with n <= 7: as views each labels its
    # root alone; as dict copies each labels every key once per call,
    # 13,508 labelings (38,140 when every node and both its child edges
    # were labeled anew)
    engine = RecognitionEngine()
    store = engine._store
    pairs = _accepted_up_to(7, engine)
    duals = [complement_certificate(cert) for _, cert in pairs]
    copies = [replace(dual, nodes=dict(dual.nodes)) for dual in duals]
    assert len(duals) == 1192
    held = dict(store.memo), dict(store.dual.memo)
    labeled = _counted(monkeypatch, "_complement_form")
    backs = [complement_certificate(dual) for dual in duals]
    assert labeled == [1192]
    copied_backs = [complement_certificate(copy) for copy in copies]
    assert labeled == [1192 + 13_508]
    assert (dict(store.memo), dict(store.dual.memo)) == held
    for (g, _), back, copied_back in zip(pairs, backs, copied_backs):
        assert type(copied_back.nodes) is dict
        assert verify_certificate(g, back) and verify_certificate(g, copied_back)


def test_a_bytearray_root_key_fails_to_complement():
    _, cert = _largest()
    with pytest.raises(recognition.InvalidCertificateError, match="undecodable-key"):
        complement_certificate(replace(cert, key=bytearray(cert.key)))


def _largest():
    """The accepted class with n <= 6 whose certificate has the most nodes."""
    return max(_accepted_up_to(6), key=lambda pair: len(pair[1].nodes))


def _kept():
    """_largest's class and a certificate of it, verified and written into its store."""
    g, _ = _largest()
    cert = RecognitionEngine().recognize(g).certificate
    assert verify_certificate(g, cert)
    certificate_to_json(g, cert)
    assert cert.key in cert.nodes._store.verified and cert.key in cert.nodes._store.texts
    return g, cert


def _float_root(cert):
    pi, pk, pi_child, pk_child = cert.nodes[cert.key]
    return replace(cert, nodes={**cert.nodes, cert.key: (float(pi), pk, pi_child, pk_child)})


def _tampered_root(cert):
    pi, pk, pi_child, pk_child = cert.nodes[cert.key]
    return replace(cert, nodes={**cert.nodes, cert.key: (pi | pk, pk, pi_child, pk_child)})


# caller-made certificates of a kept root: how each is built, and the
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


def _facts(store):
    """Copies of what a store has learned: verified keys, texts, dual nodes."""
    return set(store.verified), dict(store.texts), dict(store.dual.memo)


@pytest.mark.parametrize("variant", list(CALLER_MADE))
def test_caller_made_nodes_are_walked_and_written_anew(monkeypatch, variant):
    g, cert = _kept()
    held = _facts(cert.nodes._store)
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
    # no caller-made certificate adds to or changes a fact of the store
    assert _facts(cert.nodes._store) == held


def test_a_certificate_read_back_matches():
    g, cert = _kept()
    text = certificate_to_json(g, cert)
    g2, cert2 = certificate_from_json(text)
    assert g2 == g and cert2.nodes == cert.nodes
    assert not any(cert2.nodes[k] is node for k, node in cert.nodes.items())
    for _ in range(3):
        for h, c in ((g2, cert2), (g, cert)):
            assert verify_certificate(h, c)
            assert certificate_to_json(h, c) == text


def test_engines_share_no_certificate_facts(monkeypatch):
    # a second engine verifies every class of its own store, engine node
    # and dual node alike, and translates its own duals, whatever another
    # engine learned of the same classes first
    for g, cert in _accepted_up_to(6):
        assert verify_certificate(g, cert)
        assert verify_certificate(complement(g), complement_certificate(cert))
    calls = _counted(monkeypatch, "_verify_node")
    translated = _counted(monkeypatch, "_complement_node")
    for g, cert in _accepted_up_to(6):
        assert verify_certificate(g, cert)
        assert verify_certificate(complement(g), complement_certificate(cert))
    assert calls[0] == 2 * 201 and translated[0] == 201
