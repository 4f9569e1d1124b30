"""Quasiperfect recognition with certificates.

A graph is quasiperfect when it is empty, or when both of these hold:

* some independent set PI meets every maximum clique, has each member in
  a maximum clique, and leaves a quasiperfect graph when removed;
* some clique PK meets every maximum independent set, has each member in
  a maximum independent set, and leaves a quasiperfect graph when removed.

Recognition lists the candidate prime sets of each side in a fixed order
(increasing size, then lexicographic) and searches the side with fewer
candidates first, memoizing verdicts per isomorphism class via canonical
keys.  One side without an accepted candidate rejects the class, so the
other is never searched; the side order changes neither verdicts nor
memo entries (RecognitionEngine._analyze gives the proof).  A class is
analyzed on the graph its key decodes to, never on the labeled copy that
reached it, so the memo entry of an accepted class is its certificate
node: the first accepted prime independent set and prime clique, as
masks over that graph, and the keys of their residues.  A certificate
is the set of nodes reachable from the queried class: a DAG with one
node per isomorphism class (maximal sharing, as in hash-consing), plus
the queried graph's canonical order.

Verdicts and certificates are functions of the graph alone: neither
depends on what the engine recognized before.  Every verdict comes from
the prime-set search; nothing the paper proves about accepted graphs is
assumed.

The memo never overwrites an entry, so an engine certificate's nodes are
a read-only view of the memo, made without a walk.  What is learned of a
view is kept per class in the engine's store (_Store), beside the memo:
that a node and all it reaches verify, the dual node complement_certificate
makes of it, and the JSON text of the nodes under a root.  Certificates
made any other way are walked in full on every call.  The store is the
only place such facts live: this module keeps no process-wide memo.
"""

from __future__ import annotations

import functools
import json
import time
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .canonical import canonical_form, canonical_key, key_graph
from .graphs import (
    Graph,
    GraphFormatError,
    bit_members,
    complement,
    induced_subgraph,
    iter_bits,
    mask_of,
    parse_graph6,
    permute,
)
from .invariants import maximum_cliques

DEFAULT_RECOGNITION_LIMIT = 12
DEFAULT_MEMO_CAPACITY = 1_000_000

CERTIFICATE_SCHEMA = "qpcert-v2"

_K0_KEY = b"?"


class RecognitionLimitError(RuntimeError):
    """Recognition requested past the configured vertex limit."""


class MemoCapacityError(RuntimeError):
    """Recognition memo grew past DEFAULT_MEMO_CAPACITY entries."""


class InvalidCertificateError(ValueError):
    """Certificate fails structural validation; reason names the rule broken."""

    def __init__(self, reason: str, detail: str | None = None) -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# prime sets

def _transversal_sets(g: Graph, cliques: list[int]) -> list[int]:
    """Independent sets picking one vertex from every listed clique.

    Any independent set that meets every clique and keeps each member
    inside some clique meets each clique exactly once, so branching on
    the first uncovered clique enumerates every such set exactly once.
    """
    adj = g.adj
    out: list[int] = []

    def extend(chosen: int, closed: int) -> None:
        for q in cliques:
            if not q & chosen:
                target = q
                break
        else:
            out.append(chosen)
            return
        rest = target & ~closed
        while rest:
            low = rest & -rest
            rest ^= low
            extend(chosen | low, closed | adj[low.bit_length() - 1])

    extend(0, 0)
    return out


def prime_independent_sets(g: Graph) -> Iterator[int]:
    """Independent sets meeting every maximum clique, members all covered.

    Yields masks in increasing size, ties broken lexicographically by
    sorted member list.  The empty graph yields the empty set once; a
    nonempty graph never yields the empty set because it always has at
    least one maximum clique to meet.
    """
    if g.n == 0:
        yield 0
        return
    found = _transversal_sets(g, maximum_cliques(g))
    found.sort(key=lambda m: (m.bit_count(), bit_members(m)))
    yield from found


def prime_cliques(g: Graph) -> Iterator[int]:
    """Cliques meeting every maximum independent set, members all covered."""
    yield from prime_independent_sets(complement(g))


def _prime_failure(g: Graph, mask: int) -> str | None:
    """The first prime-independent-set clause mask breaks in g, or None.

    mask must lie inside g's vertex set.  The empty graph has no maximum
    clique, so the empty set breaks no clause there and misses one elsewhere.
    """
    adj = g.adj
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if adj[low.bit_length() - 1] & mask:
            return "pi-not-independent"
    cliques = maximum_cliques(g)
    covered = 0
    for q in cliques:
        if not q & mask:
            return "pi-misses-maximum-clique"
        covered |= q
    if mask & ~covered:
        return "pi-vertex-outside-maximum-cliques"
    return None


def is_prime_independent_set(g: Graph, mask: int) -> bool:
    if mask & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    return _prime_failure(g, mask) is None


def is_prime_clique(g: Graph, mask: int) -> bool:
    return is_prime_independent_set(complement(g), mask)


# ---------------------------------------------------------------------------
# certificates

Node = tuple[int, int, bytes, bytes]


@dataclass(frozen=True)
class QpCertificate:
    """Witness for quasiperfection, shared across isomorphic residues.

    The certified graph relabeled by order (order[p] is the vertex put at
    slot p) is the graph that key decodes to.  nodes maps the canonical
    key of every nonempty class the witness reaches to (pi, pk,
    pi_child, pk_child): a prime independent set and a prime clique as
    masks over the graph that key decodes to, and the keys of the two
    residues.  The empty graph has key "?" and no node.

    A certificate from RecognitionEngine.recognize, or complement_certificate
    of one, holds its nodes in a read-only view of one of the engine's
    stores (and keeps it alive); copy it with dict(cert.nodes) to build a
    variant.
    """

    key: bytes
    order: tuple[int, ...]
    nodes: Mapping[bytes, Node]


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str | None = None
    node: bytes | None = None  # key of the failing node, when one fails

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str, node: bytes | None = None) -> CertificateCheck:
    return CertificateCheck(False, reason, node)


def _decode(key: object) -> Graph | None:
    """The graph a key decodes to; None for malformed graph6 or a non-text key.

    A bytes key, as certificates hold them, is decoded once per process
    by key_graph; a str key is text read from a document and is parsed
    anew.
    """
    try:
        if isinstance(key, bytes):
            return key_graph(key)
        if isinstance(key, str):
            return parse_graph6(key)
    except GraphFormatError:
        pass
    return None


def _well_formed(node: object) -> bool:
    """node is a 4-sequence (pi, pk, pi_child, pk_child) of int, int, bytes, bytes."""
    if not isinstance(node, (tuple, list)) or len(node) != 4:
        return False
    pi, pk, pi_child, pk_child = node
    return (isinstance(pi, int) and isinstance(pk, int)
            and isinstance(pi_child, bytes) and isinstance(pk_child, bytes))


# the reason a prime clique gives for each clause it breaks, since it is
# checked as a prime independent set of the complement
_PK_REASONS = {
    "pi-not-independent": "pk-not-clique",
    "pi-misses-maximum-clique": "pk-misses-maximum-independent-set",
    "pi-vertex-outside-maximum-cliques": "pk-vertex-outside-maximum-independent-sets",
}


def _verify_node(key: bytes, node: Node) -> CertificateCheck:
    """Every clause of one node, on the graph its key decodes to.

    A pure function of (key, node), computed anew on every call; the
    walk of verify_certificate decides which nodes reach it.
    """
    pi, pk, pi_child, pk_child = node
    h = _decode(key)
    if h is None:
        return _fail("undecodable-key", key)
    full = h.vertex_mask
    if pi & ~full or pk & ~full:
        return _fail("vertex-out-of-range", key)
    if pi == 0:
        return _fail("empty-prime-independent-set", key)
    if pk == 0:
        return _fail("empty-prime-clique", key)

    failure = _prime_failure(h, pi)
    if failure:
        return _fail(failure, key)
    failure = _prime_failure(complement(h), pk)
    if failure:
        return _fail(_PK_REASONS[failure], key)
    if key in (pi_child, pk_child):
        return _fail("self-reference", key)
    if canonical_key(induced_subgraph(h, full & ~pi)) != pi_child:
        return _fail("pi-child-mismatch", key)
    if canonical_key(induced_subgraph(h, full & ~pk)) != pk_child:
        return _fail("pk-child-mismatch", key)
    return CertificateCheck(True)


class _Store:
    """An engine's memo and what is learned of the certificates it holds.

    memo maps each class key the engine met to its entry: False, True for
    K0, or the certificate node.  No entry of a store is ever overwritten:
    the engine stores only on a miss, and _translate only when the key is
    absent.  So each fact below is filed under a class key and stays true
    of that key's entry:
      verified: the keys whose node passed verify_certificate's walk
          together with every node it reaches;
      texts: root key -> the "nodes" member certificate_to_json wrote for
          the view of that root;
      dual: the engine's other store (each is the other's dual), holding
          the dual node of each class under its complement key.
    Every fact belongs to a memo entry (a dual entry to the accepted entry
    it translates), so DEFAULT_MEMO_CAPACITY bounds them all.
    """

    __slots__ = ("memo", "verified", "texts", "dual")

    def __init__(self, dual: _Store | None = None) -> None:
        self.memo: dict[bytes, bool | Node] = {}
        self.verified: set[bytes] = set()
        self.texts: dict[bytes, str] = {}
        self.dual = _Store(self) if dual is None else dual


class _NodesView(Mapping):
    """The nodes reachable from root in a store's memo.

    A read-only mapping: item assignment raises TypeError.  Creating one
    walks nothing; the reachable keys are listed when the view is first
    iterated, sized, indexed or compared, in the order of a pre-order walk
    that visits pk_child before pi_child, and kept.  The store never
    changes an entry, so neither does the view.
    """

    __slots__ = ("_store", "_root", "_keys")

    def __init__(self, store: _Store, root: bytes) -> None:
        self._store, self._root = store, root
        self._keys: dict[bytes, None] | None = None

    def _reach(self) -> dict[bytes, None]:
        if self._keys is None:
            memo = self._store.memo
            keys: dict[bytes, None] = {}
            stack = [self._root]
            while stack:
                key = stack.pop()
                if key == _K0_KEY or key in keys:
                    continue
                keys[key] = None
                stack += memo[key][2:]
            self._keys = keys
        return self._keys

    def __getitem__(self, key: bytes) -> Node:
        if key not in self._reach():
            raise KeyError(key)
        return self._store.memo[key]

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._reach())

    def __len__(self) -> int:
        return len(self._reach())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


def _view_of(cert: QpCertificate) -> _NodesView | None:
    """cert.nodes when it is a view rooted at cert.key, else None.

    The key's type is tested first: a bytearray key compares equal to the
    bytes root but is not hashable, so such a certificate counts as
    caller-made.
    """
    nodes = cert.nodes
    if type(cert.key) is bytes and isinstance(nodes, _NodesView) and nodes._root == cert.key:
        return nodes
    return None


def verify_certificate(g: Graph, cert: QpCertificate) -> CertificateCheck:
    """Re-derive every clause of the certificate; no recognition memo involved.

    Each node reachable from the root is checked on the graph its key
    decodes to, and each child key must be the canonical key of the
    residue it names.

    The order must hold each of 0..n-1 once, each an exact int, as
    certificate_from_json demands too: a float or a bool compares equal to
    an int but cannot relabel a vertex.  The order and the root are
    checked on every call.

    The nodes are checked by one recursive pre-order walk, pk_child
    first, that reports a missing node, a node that is not (int, int,
    bytes, bytes), or the first clause a node breaks.  The walk skips the
    keys of a verified set and adds a key to it only after every node the
    key reaches passed.  For a view of an engine's store the set is the
    store's verified, so each class of a store is checked once; for any
    other mapping it is a new set, so each key is checked once per call.
    Skipping changes no outcome, nor which node fails first: a verified
    key's node passed and so did everything it reaches, so the first path
    to a failing node passes through no skipped node.  The walk ends: a
    node that passes _verify_node has children whose keys decode to
    graphs on fewer vertices than its own, so the nodes that pass form no
    cycle, every path of the walk loses a vertex per step, and the depth
    is at most n.  A key met twice was therefore verified at its first
    meeting, or the walk has already stopped.  After the walk, a mapping
    whose nodes the root does not all reach fails "unreachable-node"; a
    view holds only reachable nodes.

    The root key is not relabeled to confirm it is canonical: the proof
    does not need it, since the order must map the root's graph onto g
    and every other reachable key is a checked child key, and it would
    cost a labeling per call.  certificate_from_json checks it instead.
    """
    order = cert.order
    if (len(order) != g.n or not all(type(v) is int for v in order)
            or sorted(order) != list(range(g.n))):
        return _fail("order-not-permutation")
    root = _decode(cert.key)
    if root is None:
        return _fail("undecodable-key", cert.key)
    if root.n != g.n:
        return _fail("root-mismatch")
    for p, row in enumerate(root.adj):  # slot p's row through order must be order[p]'s
        mapped = 0
        while row:
            low = row & -row
            row ^= low
            mapped |= 1 << order[low.bit_length() - 1]
        if mapped != g.adj[order[p]]:
            return _fail("root-mismatch")
    view = _view_of(cert)
    nodes = cert.nodes if view is None else view._store.memo
    verified = set() if view is None else view._store.verified

    def visit(key: bytes) -> CertificateCheck | None:
        if key == _K0_KEY or key in verified:
            return None
        node = nodes.get(key)
        if node is None:
            return _fail("missing-node", key)
        if not _well_formed(node):
            return _fail("malformed-node", key)
        node = tuple(node)
        check = _verify_node(key, node)
        if not check:
            return check
        for child in (node[3], node[2]):
            failure = visit(child)
            if failure is not None:
                return failure
        verified.add(key)
        return None

    failure = visit(cert.key)
    if failure is not None:
        return failure
    if view is None and len(verified) != len(nodes):
        return _fail("unreachable-node", next(k for k in nodes if k not in verified))
    return CertificateCheck(True)


def coloring_from_certificate(g: Graph, cert: QpCertificate) -> dict[int, int]:
    """Proper coloring using one color per decomposition level.

    Each level's prime independent set takes a fresh color; because that
    set meets every maximum clique, the clique number drops by exactly
    one per level and the coloring ends up with clique_number(g) colors.
    """
    check = verify_certificate(g, cert)
    if not check:
        raise InvalidCertificateError("certificate-rejected", check.reason)
    colors: dict[int, int] = {}
    labels = cert.order  # vertex of g at each slot of the current node's graph
    key = cert.key
    level = 0
    while key != _K0_KEY:
        pi, _, key_next, _ = cert.nodes[key]
        for p in iter_bits(pi):
            colors[labels[p]] = level
        h = key_graph(key)
        keep = h.vertex_mask & ~pi
        kept = [labels[p] for p in bit_members(keep)]
        _, order = canonical_form(induced_subgraph(h, keep))
        labels = tuple(kept[v] for v in order)
        key = key_next
        level += 1
    return colors


def _complement_form(key: bytes) -> tuple[bytes, tuple[int, ...]]:
    """canonical_form of the complement of the graph key decodes to."""
    if key == _K0_KEY:
        return _K0_KEY, ()
    rep = _decode(key)
    if rep is None:
        raise InvalidCertificateError("undecodable-key", repr(key))
    return canonical_form(complement(rep))


def _to_canonical(mask: int, order: tuple[int, ...]) -> int:
    """Vertex mask relabeled into canonical slots (order[p] sits at slot p)."""
    return sum(1 << p for p, v in enumerate(order) if mask >> v & 1)


def _complement_node(node: Node, order: tuple[int, ...], pi_child: bytes,
                     pk_child: bytes) -> Node:
    """node's dual in the complement class, whose canonical order is order.

    pi and pk swap roles and move into the complement's canonical slots;
    pi_child and pk_child are the dual's children: the complement keys of
    node's pk_child and pi_child.
    """
    pi, pk, _, _ = node
    return _to_canonical(pk, order), _to_canonical(pi, order), pi_child, pk_child


def _translate(store: _Store, key: bytes) -> tuple[bytes, tuple[int, ...]]:
    """The complement key and order of key's class; its dual goes into store.dual.

    The dual of key's class, and of every class it reaches, is put in the
    dual store, each entry after those of its children and only when its
    key is absent, so every key in the dual store reaches only keys in
    it.  Each call labels key's complement once, and the caller (a root's
    certificate, or the parent's dual node) takes key and order from the
    return value.  A dual store's complements are all in the engine store.
    """
    new_key, order = _complement_form(key)
    dual = store.dual.memo
    if key != _K0_KEY and new_key not in dual:
        node = store.memo[key]
        pi_child = _translate(store, node[3])[0]
        pk_child = _translate(store, node[2])[0]
        dual[new_key] = _complement_node(node, order, pi_child, pk_child)
    return new_key, order


def complement_certificate(cert: QpCertificate) -> QpCertificate:
    """Certificate for the complement graph: swap the two prime roles.

    A prime independent set of a graph is a prime clique of its
    complement with the same vertices, and residues commute with
    complementation, so each node maps to the complement of its class
    with pi and pk swapped and moved into that class's canonical slots.

    The nodes of a view are translated into the dual of its store, once
    per class, and the result is a view of that dual (the engine store,
    for a dual view); key and order come from _translate of the root.
    Any other mapping is translated into a new dict, labeling each key's
    complement once per call: two translations of one class may differ by
    an automorphism, and a store keeps one per key.  A node that is not
    (int, int, bytes, bytes) raises InvalidCertificateError("malformed-node").
    """
    view = _view_of(cert)
    nodes: Mapping[bytes, Node]
    if view is not None:
        new_key, order = _translate(view._store, view._root)
        nodes = _NodesView(view._store.dual, new_key)
    else:
        form = functools.cache(_complement_form)  # a table local to this call
        nodes = translated = {}
        for key, node in cert.nodes.items():
            if not _well_formed(node):
                raise InvalidCertificateError("malformed-node", repr(key))
            node_key, node_order = form(key)
            translated[node_key] = _complement_node(
                node, node_order, form(node[3])[0], form(node[2])[0])
        # a bytearray key, unhashable, is labeled outside the table and fails
        new_key, order = (form if type(cert.key) is bytes else _complement_form)(cert.key)
    return QpCertificate(new_key, tuple(cert.order[v] for v in order), nodes)


def certificate_to_json(g: Graph, cert: QpCertificate) -> str:
    """Compact JSON document (schema qpcert-v2) for a certificate of g.

    g itself is not stored: it is the root key's graph with slot p moved
    to vertex order[p].  The text is json.dumps of the document with
    separators (",", ":") and sorted keys, plus a newline.  The "nodes"
    member of a view is written once per root and kept in the view's
    store; any other mapping is written anew.  "key" and "order" are
    written on every call.
    """
    key_text = json.dumps(cert.key.decode("ascii"))
    view = _view_of(cert)
    nodes_text = view._store.texts.get(view._root) if view is not None else None
    if nodes_text is None:
        nodes_text = json.dumps(
            {key.decode("ascii"): [bit_members(pi), bit_members(pk),
                                   pi_child.decode("ascii"), pk_child.decode("ascii")]
             for key, (pi, pk, pi_child, pk_child) in cert.nodes.items()},
            separators=(",", ":"), sort_keys=True)
        if view is not None:
            view._store.texts[view._root] = nodes_text
    order_text = json.dumps(list(cert.order), separators=(",", ":"))
    return (f'{{"key":{key_text},"nodes":{nodes_text},"order":{order_text},'
            f'"schema":"{CERTIFICATE_SCHEMA}"}}\n')


def _read_vertices(raw: object, n: int, where: str) -> list[int]:
    """Distinct non-bool ints in 0..n-1, or InvalidCertificateError."""
    if not isinstance(raw, list):
        raise InvalidCertificateError("malformed-node", f"{where} is not a list")
    for v in raw:
        if type(v) is not int:
            raise InvalidCertificateError("vertex-not-int", f"{where} holds {v!r}")
        if not 0 <= v < n:
            raise InvalidCertificateError(
                "vertex-out-of-range", f"{where} holds {v}, outside 0..{n - 1}")
    if len(set(raw)) != len(raw):
        raise InvalidCertificateError("vertex-repeated", f"{where} repeats a vertex")
    return raw


def _read_key(raw: object, where: str) -> Graph:
    rep = _decode(raw) if isinstance(raw, str) else None
    if rep is None:
        raise InvalidCertificateError("undecodable-key", f"{where} {raw!r}")
    return rep


def certificate_from_json(text: str) -> tuple[Graph, QpCertificate]:
    """Read a qpcert-v2 document back into the certified graph and its certificate.

    Malformed input raises InvalidCertificateError, whose reason names
    the rule broken, and so does a root key that is not the canonical key
    of its graph ("root-key-not-canonical"); whether the certificate is
    valid is left to verify_certificate.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidCertificateError("not-json", str(exc)) from exc
    if not isinstance(doc, dict) or doc.get("schema") != CERTIFICATE_SCHEMA:
        raise InvalidCertificateError("wrong-schema", f"expected {CERTIFICATE_SCHEMA}")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, dict):
        raise InvalidCertificateError("malformed-node", "nodes is not an object")
    root = _read_key(doc.get("key"), "root key")
    order = _read_vertices(doc.get("order"), root.n, "order")
    if len(order) != root.n:
        raise InvalidCertificateError("order-not-permutation", f"{len(order)} slots for {root.n}")
    graphs = {raw_key: _read_key(raw_key, "node key") for raw_key in raw_nodes}

    def child(raw: object, where: str) -> bytes:
        if not isinstance(raw, str) or raw != _K0_KEY.decode() and raw not in graphs:
            raise InvalidCertificateError("dangling-child", f"{where} names {raw!r}")
        return raw.encode("ascii")

    nodes: dict[bytes, Node] = {}
    for raw_key, raw in raw_nodes.items():
        where = f"node {raw_key!r}"
        if not isinstance(raw, list) or len(raw) != 4:
            raise InvalidCertificateError("malformed-node", where)
        n = graphs[raw_key].n
        nodes[raw_key.encode("ascii")] = (
            mask_of(_read_vertices(raw[0], n, f"{where} pi")),
            mask_of(_read_vertices(raw[1], n, f"{where} pk")),
            child(raw[2], where), child(raw[3], where))
    key = child(doc["key"], "root")
    if canonical_key(root) != key:
        raise InvalidCertificateError("root-key-not-canonical", f"root key {doc['key']!r}")
    return permute(root, order), QpCertificate(key, tuple(order), nodes)


# ---------------------------------------------------------------------------
# engine

@dataclass
class RecognitionStats:
    nodes_explored: int = 0
    memo_hits: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class RecognitionOutcome:
    quasiperfect: bool
    certificate: QpCertificate | None
    stats: RecognitionStats


class RecognitionEngine:
    """Memoized quasiperfect recognizer that applies the definition only.

    mode, 'pure' or 'accelerated', has no effect: it is kept only
    because bench/workloads.py and bench/make_expected.py pass it, and
    goes with the next change to the benchmark.
    """

    def __init__(
        self,
        *,
        mode: str = "accelerated",
        limit: int = DEFAULT_RECOGNITION_LIMIT,
    ) -> None:
        if mode not in ("pure", "accelerated"):
            raise ValueError(f"unknown mode {mode!r}")
        self.limit = limit
        self._store = _Store()
        self._nodes = 0
        self._hits = 0

    # -- public API

    def recognize(self, g: Graph) -> RecognitionOutcome:
        nodes0, hits0 = self._nodes, self._hits
        t0 = time.perf_counter()
        verdict = self._verdict(g)
        cert = self._materialize(g) if verdict else None
        stats = RecognitionStats(
            nodes_explored=self._nodes - nodes0,
            memo_hits=self._hits - hits0,
            wall_time=time.perf_counter() - t0,
        )
        return RecognitionOutcome(quasiperfect=verdict, certificate=cert, stats=stats)

    def is_quasiperfect(self, g: Graph) -> bool:
        return self._verdict(g)

    # -- internals

    def _lookup(self, g: Graph) -> tuple[bytes, bool | Node]:
        """Key and memo entry of g's class, analyzing the class on a miss.

        A miss analyzes the graph the key decodes to, never g itself, so
        the entry depends on the class alone: False when rejected, True
        for K0, and the certificate node (pi, pk, pi_child, pk_child)
        when accepted.
        """
        if g.n == 0:
            return _K0_KEY, True
        if g.n > self.limit:
            raise RecognitionLimitError(
                f"recognition on {g.n} vertices exceeds limit {self.limit}")
        key, _ = canonical_form(g)
        memo = self._store.memo
        entry = memo.get(key)
        if entry is not None:
            self._hits += 1
            return key, entry
        self._nodes += 1
        entry = self._analyze(key_graph(key))
        if len(memo) >= DEFAULT_MEMO_CAPACITY:
            raise MemoCapacityError(
                f"recognition memo exceeded {DEFAULT_MEMO_CAPACITY} entries")
        memo[key] = entry
        return key, entry

    def _verdict(self, g: Graph) -> bool:
        return bool(self._lookup(g)[1])

    def _first_branch(self, g: Graph, candidates: Iterable[int]) -> tuple[int, bytes] | None:
        """First candidate whose residue is accepted, with the residue's key."""
        full = g.vertex_mask
        for mask in candidates:
            key, entry = self._lookup(induced_subgraph(g, full & ~mask))
            if entry:
                return mask, key
        return None

    def _analyze(self, g: Graph) -> bool | Node:
        """The memo entry of g's class: False, or (pi, pk, pi_child, pk_child).

        Both candidate lists are built first, and the side with fewer
        candidates is searched first, the PI side on a tie; the class is
        rejected as soon as one side has no accepted candidate.  This is
        exact.  The entry of an accepted class holds the first accepted
        PI and the first accepted PK, and each is found by scanning its
        own side in (size, lex) order, with residue verdicts that depend
        on the residue's class alone, so the order of the two scans does
        not matter.  The entry of a rejected class is False whichever side
        fails.  Only which residues get analyzed, and when, changes.
        """
        pis = list(prime_independent_sets(g))
        pks = list(prime_cliques(g))
        pk_first = len(pks) < len(pis)
        first = self._first_branch(g, pks if pk_first else pis)
        if first is None:
            return False
        second = self._first_branch(g, pis if pk_first else pks)
        if second is None:
            return False
        pi, pk = (second, first) if pk_first else (first, second)
        return pi[0], pk[0], pi[1], pk[1]

    def _materialize(self, g: Graph) -> QpCertificate:
        """The certificate of an accepted g: its order and a view of the store at its key.

        Nothing is walked: the memo never overwrites an entry, so the view
        holds, whenever it is read, the nodes the key reaches now.
        """
        key, order = canonical_form(g)
        return QpCertificate(key, order, _NodesView(self._store, key))
