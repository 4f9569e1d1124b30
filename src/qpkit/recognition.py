"""Quasiperfect recognition with certificates.

A graph is quasiperfect when it is empty, or when both of these hold:

* some independent set PI meets every maximum clique, has each member in
  a maximum clique, and leaves a quasiperfect graph when removed;
* some clique PK meets every maximum independent set, has each member in
  a maximum independent set, and leaves a quasiperfect graph when removed.

Recognition searches candidate prime sets in a fixed order (increasing
size, then lexicographic), memoizing verdicts per isomorphism class via
canonical keys.  Accepted classes store a certificate template in
canonical coordinates; retrieval relabels it onto the queried graph, so
results are bitwise deterministic for a given configuration.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterator

from .canonical import canonical_form, canonical_key
from .graphs import (
    Graph,
    GraphFormatError,
    bit_members,
    complement,
    emit_graph6,
    induced_subgraph,
    iter_bits,
    parse_graph6,
)
from .invariants import (
    DEFAULT_PERFECTION_LIMIT,
    chromatic_number,
    clique_number,
    is_perfect,
    maximum_cliques,
    maximum_independent_sets,
)

DEFAULT_RECOGNITION_LIMIT = 12
DEFAULT_MEMO_CAPACITY = 1_000_000

CERTIFICATE_SCHEMA = "qpcert-v1"

_K0_KEY = b"?"


class RecognitionLimitError(RuntimeError):
    """Recognition requested past the configured vertex limit."""


class MemoCapacityError(RuntimeError):
    """Recognition memo grew past its configured capacity."""


class InvalidCertificateError(ValueError):
    """Certificate fails structural validation."""


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
        for v in iter_bits(target & ~closed):
            extend(chosen | 1 << v, closed | adj[v])

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


def is_prime_independent_set(g: Graph, mask: int) -> bool:
    if mask & ~g.vertex_mask:
        raise ValueError("vertex set not contained in the graph")
    if g.n == 0:
        return mask == 0
    for v in iter_bits(mask):
        if g.adj[v] & mask:
            return False
    cliques = maximum_cliques(g)
    if any(not (q & mask) for q in cliques):
        return False
    return all(any(q >> v & 1 for q in cliques) for v in iter_bits(mask))


def is_prime_clique(g: Graph, mask: int) -> bool:
    return is_prime_independent_set(complement(g), mask)


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class QpCertificate:
    """Recursive witness for quasiperfection.

    pi and pk are vertex masks in the labeling of the certified graph;
    the children certify the residues (relabeled 0..k-1 in index order).
    Leaves certify the empty graph.
    """

    key: bytes
    pi: int
    pk: int
    pi_child: QpCertificate | None
    pk_child: QpCertificate | None
    leaf: bool = False


def leaf_certificate() -> QpCertificate:
    return QpCertificate(key=_K0_KEY, pi=0, pk=0, pi_child=None, pk_child=None, leaf=True)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _fail(reason: str) -> CertificateCheck:
    return CertificateCheck(False, reason)


def verify_certificate(g: Graph, cert: QpCertificate) -> CertificateCheck:
    """Re-derive every clause of the certificate; no recognition memo involved."""
    if cert.leaf:
        if g.n != 0:
            return _fail("leaf-for-nonempty-graph")
        if cert.key != _K0_KEY:
            return _fail("leaf-key-mismatch")
        return CertificateCheck(True)
    if g.n == 0:
        return _fail("interior-node-for-empty-graph")
    if cert.key != canonical_key(g):
        return _fail("key-mismatch")
    if cert.pi_child is None or cert.pk_child is None:
        return _fail("missing-child")
    full = g.vertex_mask
    if cert.pi & ~full or cert.pk & ~full:
        return _fail("vertex-out-of-range")
    if cert.pi == 0:
        return _fail("empty-prime-independent-set")
    if cert.pk == 0:
        return _fail("empty-prime-clique")

    for v in iter_bits(cert.pi):
        if g.adj[v] & cert.pi:
            return _fail("pi-not-independent")
    cliques = maximum_cliques(g)
    if any(not (q & cert.pi) for q in cliques):
        return _fail("pi-misses-maximum-clique")
    if not all(any(q >> v & 1 for q in cliques) for v in iter_bits(cert.pi)):
        return _fail("pi-vertex-outside-maximum-cliques")

    for v in iter_bits(cert.pk):
        if (cert.pk & ~(1 << v)) & ~g.adj[v]:
            return _fail("pk-not-clique")
    stables = maximum_independent_sets(g)
    if any(not (s & cert.pk) for s in stables):
        return _fail("pk-misses-maximum-independent-set")
    if not all(any(s >> v & 1 for s in stables) for v in iter_bits(cert.pk)):
        return _fail("pk-vertex-outside-maximum-independent-sets")

    sub = verify_certificate(induced_subgraph(g, full & ~cert.pi), cert.pi_child)
    if not sub:
        return _fail(f"pi-child:{sub.reason}")
    sub = verify_certificate(induced_subgraph(g, full & ~cert.pk), cert.pk_child)
    if not sub:
        return _fail(f"pk-child:{sub.reason}")
    return CertificateCheck(True)


def coloring_from_certificate(g: Graph, cert: QpCertificate) -> dict[int, int]:
    """Proper coloring using one color per decomposition level.

    Each level's prime independent set takes a fresh color; because that
    set meets every maximum clique, the clique number drops by exactly
    one per level and the coloring ends up with clique_number(g) colors.
    """
    check = verify_certificate(g, cert)
    if not check:
        raise InvalidCertificateError(f"certificate rejected: {check.reason}")
    colors: dict[int, int] = {}
    labels = list(range(g.n))
    cur = g
    node = cert
    level = 0
    while not node.leaf:
        for v in iter_bits(node.pi):
            colors[labels[v]] = level
        keep = cur.vertex_mask & ~node.pi
        labels = [labels[v] for v in bit_members(keep)]
        cur = induced_subgraph(cur, keep)
        node = node.pi_child  # type: ignore[assignment]
        level += 1
    return colors


def complement_certificate(cert: QpCertificate) -> QpCertificate:
    """Certificate for the complement graph: swap the two prime roles.

    A prime independent set of a graph is a prime clique of its
    complement with the same vertices, and residues commute with
    complementation, so the tree transposes branch by branch.  Keys are
    recomputed by decoding each stored key to its representative graph.
    """
    if cert.leaf:
        return cert
    if cert.pi_child is None or cert.pk_child is None:
        raise InvalidCertificateError("interior certificate node lacks children")
    try:
        rep = parse_graph6(cert.key.decode("ascii"))
    except (GraphFormatError, UnicodeDecodeError) as exc:
        raise InvalidCertificateError(f"undecodable certificate key: {exc}") from exc
    new_key = canonical_key(complement(rep))
    return QpCertificate(
        key=new_key,
        pi=cert.pk,
        pk=cert.pi,
        pi_child=complement_certificate(cert.pk_child),
        pk_child=complement_certificate(cert.pi_child),
    )


def certificate_to_json(g: Graph, cert: QpCertificate) -> str:
    """Self-contained JSON document (schema qpcert-v1) for a certificate."""

    def node(cur: Graph, c: QpCertificate) -> dict:
        if c.leaf:
            return {"leaf": True}
        full = cur.vertex_mask
        return {
            "graph6": emit_graph6(cur),
            "pi": bit_members(c.pi),
            "pk": bit_members(c.pk),
            "pi_child": node(induced_subgraph(cur, full & ~c.pi), c.pi_child),
            "pk_child": node(induced_subgraph(cur, full & ~c.pk), c.pk_child),
        }

    doc = {"schema": CERTIFICATE_SCHEMA}
    doc.update(node(g, cert))
    return json.dumps(doc, indent=2) + "\n"


def certificate_from_json(text: str) -> tuple[Graph, QpCertificate]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidCertificateError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != CERTIFICATE_SCHEMA:
        raise InvalidCertificateError(f"expected schema {CERTIFICATE_SCHEMA}")

    def build(node: dict) -> tuple[Graph, QpCertificate]:
        if node.get("leaf"):
            return Graph(0, ()), leaf_certificate()
        try:
            cur = parse_graph6(node["graph6"])
            pi = node["pi"]
            pk = node["pk"]
            pi_child = node["pi_child"]
            pk_child = node["pk_child"]
        except (KeyError, TypeError, GraphFormatError) as exc:
            raise InvalidCertificateError(f"malformed certificate node: {exc}") from exc
        pi_mask = 0
        for v in pi:
            pi_mask |= 1 << int(v)
        pk_mask = 0
        for v in pk:
            pk_mask |= 1 << int(v)
        _, pic = build(pi_child)
        _, pkc = build(pk_child)
        cert = QpCertificate(
            key=canonical_key(cur), pi=pi_mask, pk=pk_mask, pi_child=pic, pk_child=pkc)
        return cur, cert

    return build(doc)


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


@dataclass
class _Entry:
    verdict: bool
    pi_canon: int = 0
    pk_canon: int = 0
    has_template: bool = False


def _to_canonical(mask: int, order: tuple[int, ...]) -> int:
    """Vertex mask relabeled into canonical slots (order[p] sits at slot p)."""
    return sum(1 << p for p, v in enumerate(order) if mask >> v & 1)


def _from_canonical(mask: int, order: tuple[int, ...]) -> int:
    """Canonical-slot mask relabeled back onto the original vertices."""
    return sum(1 << order[p] for p in iter_bits(mask))


class RecognitionEngine:
    """Memoized quasiperfect recognizer.

    mode 'pure' applies the definition only; 'accelerated' may reject
    early when clique and chromatic numbers differ and, with
    perfect_shortcut set, accept perfect graphs without searching.
    reading 'conjunctive' demands both prime branches; 'disjunctive'
    accepts either one and exists only for divergence reporting, so it
    produces no certificates.
    """

    def __init__(
        self,
        *,
        mode: str = "accelerated",
        limit: int = DEFAULT_RECOGNITION_LIMIT,
        reading: str = "conjunctive",
        perfect_shortcut: bool = False,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        perfection_limit: int = DEFAULT_PERFECTION_LIMIT,
    ) -> None:
        if mode not in ("pure", "accelerated"):
            raise ValueError(f"unknown mode {mode!r}")
        if reading not in ("conjunctive", "disjunctive"):
            raise ValueError(f"unknown reading {reading!r}")
        self.mode = mode
        self.limit = limit
        self.reading = reading
        self.perfect_shortcut = perfect_shortcut
        self.memo_capacity = memo_capacity
        self.perfection_limit = perfection_limit
        self._memo: dict[bytes, _Entry] = {}
        self._nodes = 0
        self._hits = 0

    # -- public API

    def recognize(self, g: Graph) -> RecognitionOutcome:
        nodes0, hits0 = self._nodes, self._hits
        t0 = time.perf_counter()
        verdict = self._verdict(g)
        cert = None
        if verdict and self.reading == "conjunctive":
            cert = self._materialize(g)
        stats = RecognitionStats(
            nodes_explored=self._nodes - nodes0,
            memo_hits=self._hits - hits0,
            wall_time=time.perf_counter() - t0,
        )
        return RecognitionOutcome(quasiperfect=verdict, certificate=cert, stats=stats)

    def is_quasiperfect(self, g: Graph) -> bool:
        return self._verdict(g)

    # -- internals

    def _store(self, key: bytes, entry: _Entry) -> None:
        if len(self._memo) >= self.memo_capacity and key not in self._memo:
            raise MemoCapacityError(
                f"recognition memo exceeded {self.memo_capacity} entries")
        self._memo[key] = entry

    def _verdict(self, g: Graph) -> bool:
        if g.n == 0:
            return True
        if g.n > self.limit:
            raise RecognitionLimitError(
                f"recognition on {g.n} vertices exceeds limit {self.limit}")
        key, _ = canonical_form(g)
        entry = self._memo.get(key)
        if entry is not None:
            self._hits += 1
            return entry.verdict
        self._nodes += 1
        entry = self._analyze(g)
        self._store(key, entry)
        return entry.verdict

    def _residue(self, g: Graph, mask: int) -> Graph:
        return induced_subgraph(g, g.vertex_mask & ~mask)

    def _first_branch(self, g: Graph, candidates: Iterator[int]) -> int | None:
        for mask in candidates:
            if self._verdict(self._residue(g, mask)):
                return mask
        return None

    def _analyze(self, g: Graph) -> _Entry:
        if self.mode == "accelerated" and self.reading == "conjunctive":
            # both shortcuts lean on the conjunctive reading: the coloring
            # argument rides the PI chain, so a one-sided acceptance under
            # the disjunctive reading may well have unequal invariants
            if clique_number(g) != chromatic_number(g):
                return _Entry(False)
            if self.perfect_shortcut and g.n <= self.perfection_limit:
                if is_perfect(g, limit=self.perfection_limit):
                    return _Entry(True)  # certificate derived on demand
        pi = self._first_branch(g, prime_independent_sets(g))
        if pi is None and self.reading == "conjunctive":
            return _Entry(False)
        pk = self._first_branch(g, prime_cliques(g))
        if self.reading == "conjunctive":
            if pk is None:
                return _Entry(False)
        else:
            if pi is None and pk is None:
                return _Entry(False)
            return _Entry(True)
        _, order = canonical_form(g)
        return _Entry(True, _to_canonical(pi, order), _to_canonical(pk, order),
                      has_template=True)

    def _materialize(self, g: Graph) -> QpCertificate:
        if g.n == 0:
            return leaf_certificate()
        key, order = canonical_form(g)
        entry = self._memo.get(key)
        if entry is None:
            self._verdict(g)
            entry = self._memo[key]
        if not entry.verdict:
            raise InvalidCertificateError("cannot materialize a rejected graph")
        if not entry.has_template:
            pi = self._first_branch(g, prime_independent_sets(g))
            pk = self._first_branch(g, prime_cliques(g))
            assert pi is not None and pk is not None
            entry.pi_canon = _to_canonical(pi, order)
            entry.pk_canon = _to_canonical(pk, order)
            entry.has_template = True
        pi = _from_canonical(entry.pi_canon, order)
        pk = _from_canonical(entry.pk_canon, order)
        return QpCertificate(
            key=key,
            pi=pi,
            pk=pk,
            pi_child=self._materialize(self._residue(g, pi)),
            pk_child=self._materialize(self._residue(g, pk)),
        )


def is_quasiperfect(
    g: Graph,
    mode: str = "accelerated",
    *,
    limit: int = DEFAULT_RECOGNITION_LIMIT,
    engine: RecognitionEngine | None = None,
) -> RecognitionOutcome:
    """One-shot recognition; builds a fresh engine unless one is supplied."""
    if engine is None:
        engine = RecognitionEngine(mode=mode, limit=limit)
    return engine.recognize(g)
