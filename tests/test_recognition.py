"""Recognition engine, prime-set predicates, and certificate machinery."""

import hashlib
import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_graph
from qpkit import harness, recognition
from qpkit.canonical import canonical_form, canonical_key, key_graph
from qpkit.families import FamilySpec, odd_cycle_family, replicate
from qpkit.graphs import (
    bit_members,
    complement,
    complete_graph,
    cycle_graph,
    emit_graph6,
    empty_graph,
    from_edges,
    mask_of,
    parse_graph6,
    path_graph,
    permute,
)
from qpkit.harness import enumerate_graphs
from qpkit.invariants import clique_number, chromatic_number, maximum_cliques
from qpkit.recognition import (
    InvalidCertificateError,
    MemoCapacityError,
    QpCertificate,
    RecognitionEngine,
    RecognitionLimitError,
    _complement_form,
    _complement_node,
    _verify_node,
    certificate_from_json,
    certificate_to_json,
    coloring_from_certificate,
    complement_certificate,
    is_prime_clique,
    is_prime_independent_set,
    prime_cliques,
    prime_independent_sets,
    verify_certificate,
)


class TestPrimeSets:
    def test_k0(self):
        assert list(prime_independent_sets(empty_graph(0))) == [0]
        assert list(prime_cliques(empty_graph(0))) == [0]

    def test_kn_singletons(self):
        g = complete_graph(4)
        assert list(prime_independent_sets(g)) == [1 << v for v in range(4)]
        assert list(prime_cliques(g)) == [g.vertex_mask]

    def test_en_dual(self):
        g = empty_graph(4)
        assert list(prime_independent_sets(g)) == [g.vertex_mask]
        assert list(prime_cliques(g)) == [1 << v for v in range(4)]

    def test_c5_empty(self):
        g = cycle_graph(5)
        assert list(prime_independent_sets(g)) == []
        assert list(prime_cliques(g)) == []

    def test_family_one_wing(self):
        fg = odd_cycle_family(FamilySpec(5, (1,)))
        pis = [bit_members(m) for m in prime_independent_sets(fg.graph)]
        assert pis == [[0], [1], [5]]
        pks = [bit_members(m) for m in prime_cliques(fg.graph)]
        assert pks == [[2], [4], [5]]

    def test_oracle_sweep(self):
        for n in range(7):
            for g in enumerate_graphs(n):
                edges = oracles.graph_edges(g)
                want = {frozenset(s)
                        for s in oracles.oracle_prime_independent_sets(n, edges)}
                got = {frozenset(bit_members(m))
                       for m in prime_independent_sets(g)}
                assert got == want, edges
                want_k = {frozenset(s)
                          for s in oracles.oracle_prime_cliques(n, edges)}
                got_k = {frozenset(bit_members(m)) for m in prime_cliques(g)}
                assert got_k == want_k, edges

    def test_yield_order_sorted(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 8))
            out = list(prime_independent_sets(g))
            keyed = [(m.bit_count(), bit_members(m)) for m in out]
            assert keyed == sorted(keyed)
            assert len(set(out)) == len(out)

    def test_predicates(self):
        fg = odd_cycle_family(FamilySpec(5, (1,)))
        g = fg.graph
        assert is_prime_independent_set(g, mask_of([0]))
        assert not is_prime_independent_set(g, mask_of([2]))  # misses the triangle
        assert not is_prime_independent_set(g, mask_of([0, 1]))  # not independent
        assert is_prime_clique(g, mask_of([2]))
        assert not is_prime_clique(g, mask_of([0, 1, 5]))  # cycle ends outside MIS
        with pytest.raises(ValueError):
            is_prime_independent_set(g, 1 << 10)


class TestRecognition:
    def test_k0_and_k1(self):
        assert RecognitionEngine().recognize(empty_graph(0)).quasiperfect
        assert RecognitionEngine().recognize(empty_graph(1)).quasiperfect

    def test_c5_pure_reject(self):
        out = RecognitionEngine().recognize(cycle_graph(5))
        assert not out.quasiperfect
        assert out.certificate is None

    def test_family_accept(self):
        fg = odd_cycle_family(FamilySpec(5, (1,)))
        out = RecognitionEngine().recognize(fg.graph)
        assert out.quasiperfect
        assert verify_certificate(fg.graph, out.certificate)

    def test_reference_oracle_agreement(self):
        for n in range(6):
            for g in enumerate_graphs(n):
                edges = oracles.graph_edges(g)
                want = oracles.oracle_quasiperfect(n, edges)
                assert RecognitionEngine().recognize(g).quasiperfect == want, edges

    def test_mode_has_no_effect(self):
        for n in range(8):
            for g in enumerate_graphs(n):
                got = [(o.quasiperfect, o.certificate, o.stats.nodes_explored,
                        o.stats.memo_hits)
                       for m in ("accelerated", "pure")
                       for o in [RecognitionEngine(mode=m).recognize(g)]]
                assert got[0] == got[1], emit_graph6(g)
        with pytest.raises(ValueError):
            RecognitionEngine(mode="fast")

    def test_certificates_verify_up_to_six(self):
        eng = RecognitionEngine()
        for n in range(7):
            for g in enumerate_graphs(n):
                out = eng.recognize(g)
                if out.quasiperfect:
                    assert verify_certificate(g, out.certificate)

    @pytest.mark.parametrize("knob,value", [("perfect_shortcut", True),
                                            ("perfection_limit", 10)])
    def test_perfect_shortcut_removed(self, knob, value):
        with pytest.raises(TypeError):
            RecognitionEngine(**{knob: value})

    def test_memo_reuse(self):
        eng = RecognitionEngine()
        g = odd_cycle_family(FamilySpec(5, (1, 2, 3))).graph
        eng.recognize(g)
        hits_before = eng.recognize(g).stats.memo_hits
        assert hits_before >= 1  # second call answers from the memo

    def test_limit(self):
        eng = RecognitionEngine(limit=5)
        with pytest.raises(RecognitionLimitError):
            eng.recognize(empty_graph(6))

    def test_memo_capacity(self, monkeypatch):
        monkeypatch.setattr(recognition, "DEFAULT_MEMO_CAPACITY", 1)
        eng = RecognitionEngine()
        with pytest.raises(MemoCapacityError):
            for n in range(5):
                for g in enumerate_graphs(n):
                    eng.recognize(g)

    def test_isomorphic_inputs_share_memo(self, rng):
        eng = RecognitionEngine()
        g = odd_cycle_family(FamilySpec(5, (1, 4))).graph
        out1 = eng.recognize(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = permute(g, perm)
        out2 = eng.recognize(h)
        assert out1.quasiperfect == out2.quasiperfect
        assert verify_certificate(h, out2.certificate)

    def test_disjunctive_no_certificates(self):
        # the either-side reading is a harness verdict with no certificate;
        # the engine, which demands both sides, rejects this class
        g = parse_graph6("E@V_")
        assert harness._either_side(canonical_key(g)) is True
        out = RecognitionEngine().recognize(g)
        assert not out.quasiperfect
        assert out.certificate is None


def _empty_certificate():
    return RecognitionEngine().recognize(empty_graph(0)).certificate


def _with_node(cert, key, **changes):
    """cert with one node's fields replaced (pi, pk, pi_child, pk_child)."""
    pi, pk, pi_child, pk_child = cert.nodes[key]
    fields = {"pi": pi, "pk": pk, "pi_child": pi_child, "pk_child": pk_child, **changes}
    nodes = dict(cert.nodes)
    nodes[key] = (fields["pi"], fields["pk"], fields["pi_child"], fields["pk_child"])
    return replace(cert, nodes=nodes)


class TestCertificates:
    def _family_cert(self):
        fg = odd_cycle_family(FamilySpec(5, (1,)))
        out = RecognitionEngine().recognize(fg.graph)
        return fg.graph, out.certificate

    def _inner_key(self, cert):
        """A node key below the root whose class has a node of its own."""
        return next(k for k in cert.nodes[cert.key][2:] if k in cert.nodes)

    def test_leaf(self):
        cert = _empty_certificate()
        assert cert == QpCertificate(b"?", (), {})
        assert verify_certificate(empty_graph(0), cert)

    def test_leaf_wrong_graph(self):
        chk = verify_certificate(complete_graph(1), _empty_certificate())
        assert not chk
        assert chk.reason == "order-not-permutation"

    def test_shares_isomorphic_residues(self):
        g, cert = self._family_cert()
        for key in cert.nodes:
            assert parse_graph6(key).n < g.n or key == cert.key
        assert len(cert.nodes) == len(set(cert.nodes))
        # every class reached once, however many paths lead to it
        children = [c for node in cert.nodes.values() for c in node[2:] if c != b"?"]
        assert len(children) > len(set(children))

    def test_verify_rejects_tampered_pi(self):
        g, cert = self._family_cert()
        pi, pk, _, _ = cert.nodes[cert.key]
        chk = verify_certificate(g, _with_node(cert, cert.key, pi=pi | pk))
        assert not chk
        assert chk.node == cert.key
        assert chk.reason in ("pi-not-independent", "pi-misses-maximum-clique",
                              "pi-vertex-outside-maximum-cliques", "pi-child-mismatch")

    def test_verify_rejects_tampered_pk(self):
        g, cert = self._family_cert()
        pi, pk, _, _ = cert.nodes[cert.key]
        chk = verify_certificate(g, _with_node(cert, cert.key, pk=pk | pi))
        assert not chk
        assert chk.node == cert.key
        assert chk.reason in ("pk-not-clique", "pk-misses-maximum-independent-set",
                              "pk-vertex-outside-maximum-independent-sets",
                              "pk-child-mismatch")

    def test_verify_rejects_out_of_range_vertex(self):
        g, cert = self._family_cert()
        pi, _, _, _ = cert.nodes[cert.key]
        chk = verify_certificate(g, _with_node(cert, cert.key, pi=pi | 1 << g.n))
        assert (chk.ok, chk.reason, chk.node) == (False, "vertex-out-of-range", cert.key)

    def test_verify_rejects_wrong_graph(self):
        g, cert = self._family_cert()
        chk = verify_certificate(cycle_graph(6), cert)
        assert not chk

    def test_verify_reports_deep_failures(self):
        g, cert = self._family_cert()
        inner = self._inner_key(cert)
        chk = verify_certificate(g, _with_node(cert, inner, pi=0))
        assert not chk
        assert chk.reason == "empty-prime-independent-set"
        assert chk.node == inner != cert.key

    @pytest.mark.parametrize("tamper,pi_reason,pk_reason", [
        ("empty", "empty-prime-independent-set", "empty-prime-clique"),
        ("edge", "pi-not-independent", "pk-not-clique"),
        ("vertex", "pi-misses-maximum-clique", "pk-misses-maximum-independent-set"),
        ("union", "pi-vertex-outside-maximum-cliques",
         "pk-vertex-outside-maximum-independent-sets"),
        ("child", "pi-child-mismatch", "pk-child-mismatch"),
    ])
    def test_pk_reasons_mirror_pi_reasons(self, tamper, pi_reason, pk_reason):
        # a prime clique is checked as a prime independent set of the
        # complement, so the root node tampered in its pi fails with the pi
        # reason, and its complement certificate fails in pk with the pk one;
        # no other test reaches most of these reasons
        g, cert = self._family_cert()
        h = key_graph(cert.key)
        pi, pk, pi_child, _ = cert.nodes[cert.key]
        u = next(v for v in range(h.n) if h.adj[v])
        cliques = maximum_cliques(h)
        changes = {
            "empty": {"pi": 0},
            "edge": {"pi": 1 << u | h.adj[u] & -h.adj[u]},
            "vertex": {"pi": 1 << next(v for v in range(h.n)
                                       if not all(q >> v & 1 for q in cliques))},
            "union": {"pi": pi | pk},
            "child": {"pi_child": next(k for k in cert.nodes
                                       if k not in (pi_child, cert.key))},
        }[tamper]
        tampered = _with_node(cert, cert.key, **changes)
        chk = verify_certificate(g, tampered)
        assert (chk.ok, chk.reason, chk.node) == (False, pi_reason, cert.key)
        dual = complement_certificate(tampered)
        chk = verify_certificate(complement(g), dual)
        assert (chk.ok, chk.reason, chk.node) == (False, pk_reason, dual.key)

    def test_verify_rejects_child_of_wrong_class(self):
        g, cert = self._family_cert()
        _, _, pi_child, pk_child = cert.nodes[cert.key]
        wrong = next(k for k in cert.nodes if k not in (pi_child, cert.key))
        chk = verify_certificate(g, _with_node(cert, cert.key, pi_child=wrong))
        assert (chk.ok, chk.reason, chk.node) == (False, "pi-child-mismatch", cert.key)

    def test_verify_rejects_order_not_permutation(self):
        g, cert = self._family_cert()
        bad = replace(cert, order=(0,) + cert.order[1:])
        assert verify_certificate(g, bad).reason == "order-not-permutation"
        short = replace(cert, order=cert.order[1:])
        assert verify_certificate(g, short).reason == "order-not-permutation"

    @pytest.mark.parametrize("entry", [float, lambda v: bool(v) if v < 2 else v],
                             ids=["float", "bool"])
    def test_verify_rejects_order_entries_that_are_not_ints(self, entry):
        # C4's order with 0 and 1 as bools, or every entry as a float, passes
        # a sorted() test, but only an int can relabel a vertex
        g = cycle_graph(4)
        cert = RecognitionEngine().recognize(g).certificate
        bad = replace(cert, order=tuple(map(entry, cert.order)))
        assert bad.order == cert.order  # equal as numbers, entry by entry
        assert verify_certificate(g, bad).reason == "order-not-permutation"
        with pytest.raises(InvalidCertificateError, match="order-not-permutation"):
            coloring_from_certificate(g, bad)
        assert verify_certificate(g, cert)

    def test_verify_rejects_order_mapping_elsewhere(self):
        g, cert = self._family_cert()
        order = list(cert.order)
        order[0], order[-1] = order[-1], order[0]  # not an automorphism here
        chk = verify_certificate(g, replace(cert, order=tuple(order)))
        assert chk.reason == "root-mismatch"

    def test_verify_rejects_missing_node(self):
        g, cert = self._family_cert()
        inner = self._inner_key(cert)
        nodes = {k: v for k, v in cert.nodes.items() if k != inner}
        chk = verify_certificate(g, replace(cert, nodes=nodes))
        assert (chk.ok, chk.reason, chk.node) == (False, "missing-node", inner)

    def test_verify_rejects_unreachable_node(self):
        g, cert = self._family_cert()
        other = RecognitionEngine().recognize(complete_graph(5)).certificate
        assert other.key not in cert.nodes
        nodes = {**cert.nodes, other.key: other.nodes[other.key]}
        chk = verify_certificate(g, replace(cert, nodes=nodes))
        assert (chk.ok, chk.reason, chk.node) == (False, "unreachable-node", other.key)

    def test_verify_rejects_self_reference(self):
        g, cert = self._family_cert()
        inner = self._inner_key(cert)
        chk = verify_certificate(g, _with_node(cert, inner, pk_child=inner))
        assert (chk.ok, chk.reason, chk.node) == (False, "self-reference", inner)

    def test_verify_accepts_list_nodes(self):
        g, cert = self._family_cert()
        as_lists = replace(cert, nodes={k: list(v) for k, v in cert.nodes.items()})
        assert verify_certificate(g, as_lists) == verify_certificate(g, cert)
        pi, pk, _, _ = cert.nodes[cert.key]
        tampered = _with_node(cert, cert.key, pi=pi | pk)
        listed = replace(tampered, nodes={**tampered.nodes,
                                          cert.key: list(tampered.nodes[cert.key])})
        assert verify_certificate(g, listed) == verify_certificate(g, tampered)

    @pytest.mark.parametrize("mangle", [
        lambda node: node[:3],
        lambda node: (str(node[0]),) + node[1:],
        lambda node: node[:2] + (node[2].decode("ascii"), node[3]),
        lambda node: 7,
    ], ids=["three-tuple", "str-mask", "str-child", "not-a-sequence"])
    def test_verify_rejects_malformed_node(self, mangle):
        g, cert = self._family_cert()
        inner = self._inner_key(cert)
        nodes = {**cert.nodes, inner: mangle(cert.nodes[inner])}
        chk = verify_certificate(g, replace(cert, nodes=nodes))
        assert (chk.ok, chk.reason, chk.node) == (False, "malformed-node", inner)

    @pytest.mark.parametrize("key", [None, 0, ["?"]], ids=["none", "int", "list"])
    def test_verify_rejects_non_text_root_key(self, key):
        chk = verify_certificate(empty_graph(1), QpCertificate(key, (0,), {}))
        assert (chk.ok, chk.reason) == (False, "undecodable-key")

    def test_node_memo_keyed_on_content(self):
        # a tampered node that shares its key with a verified one is checked
        # in full, not answered from the memo entry of the verified node
        g, cert = self._family_cert()
        inner = self._inner_key(cert)
        pi, pk, pi_child, _ = cert.nodes[cert.key]
        wrong = next(k for k in cert.nodes if k not in (pi_child, cert.key))
        variants = [
            _with_node(cert, cert.key, pi=pi | pk),
            _with_node(cert, cert.key, pk=pk | pi),
            _with_node(cert, cert.key, pi=pi | 1 << g.n),
            _with_node(cert, inner, pi=0),
            _with_node(cert, cert.key, pi_child=wrong),
            _with_node(cert, inner, pk_child=inner),
        ]
        for tampered in variants:
            _verify_node.cache_clear()
            assert verify_certificate(g, cert)
            warm = verify_certificate(g, tampered)
            _verify_node.cache_clear()
            cold = verify_certificate(g, tampered)
            assert not cold.ok
            assert (warm.reason, warm.node) == (cold.reason, cold.node)

    def test_coloring_proper_with_omega_colors(self):
        eng = RecognitionEngine()
        for n in range(7):
            for g in enumerate_graphs(n):
                out = eng.recognize(g)
                if not out.quasiperfect:
                    continue
                coloring = coloring_from_certificate(g, out.certificate)
                assert set(coloring) == set(range(g.n))
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        if g.has_edge(u, v):
                            assert coloring[u] != coloring[v]
                if g.n:
                    used = len(set(coloring.values()))
                    assert used == clique_number(g) == chromatic_number(g)

    def test_coloring_rejects_invalid(self):
        g, cert = self._family_cert()
        with pytest.raises(InvalidCertificateError):
            coloring_from_certificate(cycle_graph(6), cert)

    def test_json_roundtrip(self):
        g, cert = self._family_cert()
        blob = certificate_to_json(g, cert)
        doc = json.loads(blob)
        assert doc["schema"] == "qpcert-v2"
        assert doc["key"] == cert.key.decode() and doc["order"] == list(cert.order)
        g2, cert2 = certificate_from_json(blob)
        assert g2 == g
        assert cert2 == cert
        assert verify_certificate(g2, cert2)
        assert certificate_to_json(g2, cert2) == blob

    def test_json_deterministic(self):
        g, cert = self._family_cert()
        assert certificate_to_json(g, cert) == certificate_to_json(g, cert)

    def test_json_rejects_garbage(self):
        with pytest.raises(InvalidCertificateError):
            certificate_from_json("{}")
        with pytest.raises(InvalidCertificateError):
            certificate_from_json(json.dumps({"schema": "nope"}))
        with pytest.raises(InvalidCertificateError) as err:
            certificate_from_json(json.dumps({"schema": "qpcert-v1", "leaf": True}))
        assert err.value.reason == "wrong-schema"


class TestCertificateReader:
    """The reader takes only well-formed documents, each fault with its reason."""

    def _doc(self):
        g = odd_cycle_family(FamilySpec(5, (1,))).graph
        cert = RecognitionEngine().recognize(g).certificate
        return json.loads(certificate_to_json(g, cert)), cert.key.decode()

    def _reason(self, doc):
        with pytest.raises(InvalidCertificateError) as err:
            certificate_from_json(json.dumps(doc))
        return err.value.reason

    @pytest.mark.parametrize("field", [0, 1], ids=["pi", "pk"])
    @pytest.mark.parametrize("vertex,reason", [
        (-1, "vertex-out-of-range"),
        (2 ** 40, "vertex-out-of-range"),
        (6, "vertex-out-of-range"),
        (True, "vertex-not-int"),
        ("1", "vertex-not-int"),
        (1.5, "vertex-not-int"),
        (None, "vertex-not-int"),
    ], ids=["minus-1", "2-to-40", "n", "true", "string", "float", "null"])
    def test_bad_vertex(self, field, vertex, reason):
        doc, root = self._doc()
        doc["nodes"][root][field] = [vertex]
        assert self._reason(doc) == reason

    @pytest.mark.parametrize("field", [0, 1], ids=["pi", "pk"])
    def test_repeated_vertex(self, field):
        doc, root = self._doc()
        doc["nodes"][root][field] = [0, 0]
        assert self._reason(doc) == "vertex-repeated"

    @pytest.mark.parametrize("slot", [2, 3], ids=["pi_child", "pk_child"])
    @pytest.mark.parametrize("child", ["D??", "not graph6 \u00e9", 7, None])
    def test_dangling_child(self, slot, child):
        doc, root = self._doc()
        doc["nodes"][root][slot] = child
        assert self._reason(doc) == "dangling-child"

    def test_dangling_root(self):
        doc, root = self._doc()
        del doc["nodes"][root]
        assert self._reason(doc) == "dangling-child"

    def test_order_not_permutation(self):
        doc, _ = self._doc()
        doc["order"] = doc["order"][:-1]
        assert self._reason(doc) == "order-not-permutation"
        doc["order"] = [0] * 6
        assert self._reason(doc) == "vertex-repeated"
        doc["order"] = [True, 0, 2, 3, 4, 5]
        assert self._reason(doc) == "vertex-not-int"

    def test_malformed_node(self):
        doc, root = self._doc()
        doc["nodes"][root] = doc["nodes"][root][:3]
        assert self._reason(doc) == "malformed-node"
        doc["nodes"] = []
        assert self._reason(doc) == "malformed-node"

    def test_root_key_not_canonical(self):
        # a certificate of FFzvO whose root node sits under a relabeled key
        # of the same graph, its masks and order relabeled to match
        g = parse_graph6("FFzvO")
        doc = json.loads(certificate_to_json(g, RecognitionEngine().recognize(g).certificate))
        perm = list(reversed(range(g.n)))
        relabeled = emit_graph6(permute(parse_graph6(doc["key"]), perm))
        assert relabeled != doc["key"]
        pi, pk, pi_child, pk_child = doc["nodes"].pop(doc["key"])
        doc["nodes"][relabeled] = [[perm[v] for v in pi], [perm[v] for v in pk],
                                   pi_child, pk_child]
        doc["order"] = [doc["order"][perm.index(w)] for w in range(g.n)]
        doc["key"] = relabeled
        assert self._reason(doc) == "root-key-not-canonical"

    def test_undecodable_key(self):
        doc, root = self._doc()
        doc["key"] = "~~~"
        assert self._reason(doc) == "undecodable-key"
        doc, root = self._doc()
        doc["nodes"]["D"] = doc["nodes"].pop(root)
        assert self._reason(doc) == "undecodable-key"
        doc, root = self._doc()
        doc["nodes"][root][2] = "\u00e9"
        doc["nodes"]["\u00e9"] = doc["nodes"][root]
        assert self._reason(doc) == "undecodable-key"


def _disjoint_cliques(k, t):
    return from_edges(k * t, [(i * t + a, i * t + b) for i in range(k)
                              for a in range(t) for b in range(a + 1, t)])


def _named_graphs():
    rook = from_edges(12, [(x, y) for x in range(12) for y in range(x + 1, 12)
                           if x // 4 == y // 4 or x % 4 == y % 4])
    named = {f"{k}K2": _disjoint_cliques(k, 2) for k in range(1, 7)}
    named.update({f"{k}K3": _disjoint_cliques(k, 3) for k in range(1, 5)})
    named.update({"C5[2]": replicate(cycle_graph(5), [2] * 5), "K3xK4": rook})
    return named


@pytest.fixture(scope="module")
def shared_engine():
    return RecognitionEngine()


def _check_certificate_properties(engine, g):
    """Verdict of g, checking every property of its certificate."""
    out = engine.recognize(g)
    if not out.quasiperfect:
        return False
    cert = out.certificate
    chk = verify_certificate(g, cert)
    assert chk, chk.reason
    text = certificate_to_json(g, cert)
    g2, cert2 = certificate_from_json(text)
    assert (g2, cert2) == (g, cert)
    assert certificate_to_json(g2, cert2) == text
    dual = complement_certificate(cert)
    chk = verify_certificate(complement(g), dual)
    assert chk, chk.reason
    coloring = coloring_from_certificate(g, cert)
    assert all(coloring[u] != coloring[v] for u, v in g.edges())
    assert len(set(coloring.values())) == clique_number(g)
    return True


class TestCertificateDeterminism:
    """A certificate is a function of the graph alone."""

    @staticmethod
    def _texts(engine, graphs, order):
        out = {}
        for i in order:
            res = engine.recognize(graphs[i])
            if res.quasiperfect:
                out[i] = certificate_to_json(graphs[i], res.certificate)
        return out

    def test_independent_of_call_order(self, rng):
        graphs = [g for n in range(7) for g in enumerate_graphs(n)]
        idx = range(len(graphs))
        shared = self._texts(RecognitionEngine(), graphs, idx)
        assert len(shared) == 202
        assert self._texts(RecognitionEngine(), graphs, reversed(idx)) == shared
        warmed = RecognitionEngine()  # every class first reached through another labeling
        for g in reversed(graphs):
            warmed.recognize(permute(g, rng.sample(range(g.n), g.n)))
        assert self._texts(warmed, graphs, idx) == shared
        for i, text in shared.items():
            assert self._texts(RecognitionEngine(), graphs, [i]) == {i: text}

    def test_certificates_pinned_up_to_seven(self):
        # sha256 over the certificate_to_json text of every accepted class
        # with n <= 7, in enumeration order, each on the graph its class's
        # key decodes to; a change to the search order of prime sets or to
        # the certificate layout fails here.  Three
        # rounds over the same certificates: the first meets each root, the
        # second records its nodes text, the third writes from the record
        eng = RecognitionEngine()
        pairs = [(g, out.certificate) for n in range(8) for g in enumerate_graphs(n)
                 for out in [eng.recognize(g)] if out.quasiperfect]
        assert len(pairs) == 1192
        for _ in range(3):
            texts = [certificate_to_json(g, cert) for g, cert in pairs]
            assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
                "6ad071c2cd808efbf5f33e275e171e8e3fed6d31980f7d31396c0d8939bd9b10")


class TestCertificateProperties:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 9), st.data())
    def test_random_graphs(self, shared_engine, n, data):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)
                           if pairs else st.just([]))
        _check_certificate_properties(shared_engine, from_edges(n, chosen))

    @pytest.mark.parametrize("name", list(_named_graphs()))
    def test_symmetric_graphs(self, shared_engine, name):
        accepted = _check_certificate_properties(shared_engine, _named_graphs()[name])
        assert accepted == (name != "C5[2]")  # C5[2] has omega 4 < chi 5


def _clear_memos():
    _verify_node.cache_clear()
    _complement_form.cache_clear()
    _complement_node.cache_clear()


def _translate_unmemoized(cert):
    """complement_certificate written out with no memo of its own."""

    def form(key):
        return (b"?", ()) if key == b"?" else canonical_form(complement(parse_graph6(key)))

    def slots(mask, order):
        return mask_of(p for p, v in enumerate(order) if mask >> v & 1)

    nodes = {}
    for key, (pi, pk, pi_child, pk_child) in cert.nodes.items():
        new_key, order = form(key)
        nodes[new_key] = (slots(pk, order), slots(pi, order),
                          form(pk_child)[0], form(pi_child)[0])
    new_key, order = form(cert.key)
    return QpCertificate(new_key, tuple(cert.order[v] for v in order), nodes)


class TestVerificationMemo:
    def test_warm_and_cold_memos_agree(self):
        # every accepted class with n <= 7 and its complement certificate:
        # the memos answer exactly as a cold check does
        eng = RecognitionEngine()
        certs = []
        for n in range(8):
            for g in enumerate_graphs(n):
                out = eng.recognize(g)
                if out.quasiperfect:
                    certs.append((g, out.certificate))

        def answers():
            out = []
            for g, cert in certs:
                dual = complement_certificate(cert)
                out.append((dual, verify_certificate(g, cert),
                            verify_certificate(complement(g), dual)))
            return out

        answers()  # fills both memos
        warm = answers()
        for (g, cert), (dual, chk, dual_chk) in zip(certs, warm):
            _clear_memos()
            assert complement_certificate(cert) == dual
            _clear_memos()
            assert verify_certificate(g, cert) == chk
            _clear_memos()
            assert verify_certificate(complement(g), dual) == dual_chk
            assert chk and dual_chk


class TestComplementDuality:
    def test_pi_of_g_is_pk_of_complement(self, rng):
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 8))
            cg = complement(g)
            for pi in prime_independent_sets(g):
                assert is_prime_clique(cg, pi)

    def test_certificate_transposes(self):
        eng = RecognitionEngine()
        count = 0
        for n in range(6):
            for g in enumerate_graphs(n):
                out = eng.recognize(g)
                if not out.quasiperfect or n == 0:
                    continue
                cc = complement_certificate(out.certificate)
                chk = verify_certificate(complement(g), cc)
                assert chk, chk.reason
                count += 1
        assert count > 40

    def test_double_complement_same_classes(self):
        # masks sit in canonical slots, and the two labelings of a class and
        # of its complement differ by an automorphism, so complementing twice
        # may move a node's masks by one; the classes and children stay put
        fg = odd_cycle_family(FamilySpec(5, (1, 3)))
        cert = RecognitionEngine().recognize(fg.graph).certificate
        cc = complement_certificate(complement_certificate(cert))
        assert verify_certificate(fg.graph, cc)
        assert cc.key == cert.key
        assert {k: v[2:] for k, v in cc.nodes.items()} == \
            {k: v[2:] for k, v in cert.nodes.items()}

    def test_matches_unmemoized_translation(self):
        eng = RecognitionEngine()
        count = 0
        for n in range(7):
            for g in enumerate_graphs(n):
                out = eng.recognize(g)
                if out.quasiperfect:
                    assert complement_certificate(out.certificate) == \
                        _translate_unmemoized(out.certificate), oracles.graph_edges(g)
                    count += 1
        assert count == 202

    def test_tampered_node_translated_anew(self):
        # a node that shares its key with a translated one is translated in
        # full, not answered from the memo entry of the first
        fg = odd_cycle_family(FamilySpec(5, (1, 3)))
        cert = RecognitionEngine().recognize(fg.graph).certificate
        complement_certificate(cert)  # fills the memo
        pi, pk, pi_child, pk_child = cert.nodes[cert.key]
        for tampered in [(pi | pk, pk, pi_child, pk_child),
                         (pi, pk ^ 1, pi_child, pk_child),
                         (pi, pk, pk_child, pi_child),
                         [pi, pk, pi_child, pk_child]]:
            changed = replace(cert, nodes={**cert.nodes, cert.key: tampered})
            assert complement_certificate(changed) == _translate_unmemoized(changed)
        assert complement_certificate(cert) == _translate_unmemoized(cert)

    @pytest.mark.parametrize("node", [(1, 1, b"?"), (1, 1, "?", b"?"), 7],
                             ids=["three-tuple", "str-child", "not-a-sequence"])
    def test_malformed_node_raises(self, node):
        cert = QpCertificate(b"@", (0,), {b"@": node})
        with pytest.raises(InvalidCertificateError) as exc:
            complement_certificate(cert)
        assert exc.value.reason == "malformed-node"

    def test_leaf_self_dual(self):
        assert complement_certificate(_empty_certificate()) == _empty_certificate()


class TestEngineAgainstKnownGraphs:
    @pytest.mark.parametrize("builder,expected", [
        (lambda: complete_graph(6), True),
        (lambda: empty_graph(6), True),
        (lambda: path_graph(6), True),
        (lambda: cycle_graph(6), True),
        (lambda: cycle_graph(5), False),
        (lambda: from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]),
         False),  # 5-wheel
    ])
    def test_verdicts(self, builder, expected):
        assert RecognitionEngine().recognize(builder()).quasiperfect == expected


def _symmetric_graphs():
    """The symmetric graphs of the classify benchmark, built the same way:
    disjoint cliques and 4-cycles, cycle blow-ups, rook's graphs and the
    cube, each with its complement."""
    def clique(t):
        return t, list(itertools.combinations(range(t), 2))

    def cycle(t):
        return t, [(i, (i + 1) % t) for i in range(t)]

    def disjoint(k, base):
        n, edges = base
        return k * n, [(u + i * n, v + i * n) for i in range(k) for u, v in edges]

    def blowup(base, t):
        n, edges = base
        out = [(v * t + a, v * t + b) for v in range(n)
               for a, b in itertools.combinations(range(t), 2)]
        out += [(u * t + a, v * t + b) for u, v in edges for a in range(t) for b in range(t)]
        return n * t, out

    def rook(a, b):
        cells = [(i, j) for i in range(a) for j in range(b)]
        return a * b, [(x, y) for x, y in itertools.combinations(range(a * b), 2)
                       if cells[x][0] == cells[y][0] or cells[x][1] == cells[y][1]]

    bases = ([disjoint(k, clique(2)) for k in range(2, 7)]
             + [disjoint(k, clique(3)) for k in range(2, 5)]
             + [disjoint(k, clique(4)) for k in range(2, 4)]
             + [disjoint(2, clique(5))]
             + [disjoint(k, cycle(4)) for k in range(2, 4)]
             + [blowup(cycle(c), t) for c, t in ((4, 2), (4, 3), (5, 2), (6, 2))]
             + [rook(a, b) for a, b in ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4))]
             + [(8, [(u, u ^ 1 << k) for u in range(8) for k in range(3) if u < u ^ 1 << k])])
    out = []
    for n, edges in bases:
        g = from_edges(n, edges)
        out += [g, complement(g)]
    return out


def _seeded_corpus():
    """random.Random(1): n = 9..12, densities 0.3, 0.5 and 0.7, five graphs
    each, with round(d * len(pairs)) edges drawn from the vertex pairs, as
    in the CI step "Search work on a seeded corpus"."""
    rnd = random.Random(1)
    out = []
    for n in range(9, 13):
        pairs = list(itertools.combinations(range(n), 2))
        for d in (0.3, 0.5, 0.7):
            for _ in range(5):
                out.append(from_edges(n, rnd.sample(pairs, round(d * len(pairs)))))
    return out


class TestSideOrder:
    """The side with fewer prime-set candidates is searched first.

    The oracle engine searches the PI side first, as the engine did
    before; verdicts and certificates must be the same."""

    @staticmethod
    def _same_answers(graphs):
        new, old = RecognitionEngine(), oracles.pi_first_engine()
        for g in graphs:
            a, b = new.recognize(g), old.recognize(g)
            assert a.quasiperfect == b.quasiperfect, emit_graph6(g)
            if a.quasiperfect:
                ca, cb = a.certificate, b.certificate
                assert (ca.key, ca.order, dict(ca.nodes)) == \
                    (cb.key, cb.order, dict(cb.nodes)), emit_graph6(g)
        return new, old

    def test_every_class_up_to_seven(self):
        self._same_answers([g for n in range(8) for g in enumerate_graphs(n)])

    def test_seeded_random_graphs(self):
        rnd = random.Random(26)
        self._same_answers([random_graph(rnd, n, p) for n in (9, 10, 11)
                            for p in (0.3, 0.5, 0.7) for _ in range(3)])

    def test_symmetric_graphs(self):
        self._same_answers(_symmetric_graphs())

    def test_no_prime_clique_rejects_before_any_residue_is_labeled(self):
        # the 5-wheel has no prime clique, and one PI candidate, the hub,
        # whose residue is C5: the PK side is shorter, goes first and
        # rejects, so only the wheel itself is labeled
        wheel = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                               (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
        assert list(prime_cliques(wheel)) == []
        assert len(list(prime_independent_sets(wheel))) == 1
        for engine, labelings in ((RecognitionEngine(), 1), (oracles.pi_first_engine(), 2)):
            canonical_form.cache_clear()
            assert not engine.is_quasiperfect(wheel)
            assert canonical_form.cache_info().misses == labelings

    def test_seeded_corpus_work(self):
        # deterministic work counters, pinned for both engines: classes
        # analyzed and labelings (labeling-cache misses from a cold cache)
        counts = []
        for engine in (RecognitionEngine(), oracles.pi_first_engine()):
            canonical_form.cache_clear()
            accepted = sum(engine.recognize(g).quasiperfect for g in _seeded_corpus())
            counts.append((accepted, engine._nodes, canonical_form.cache_info().misses))
        assert counts == [(45, 438, 639), (45, 510, 871)]
