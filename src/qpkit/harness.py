"""Exhaustive enumeration and verification sweeps.

Recognition applies the definition only, so nothing a theorem suite
verifies is assumed by the prover, and every report echoes its
configuration.  Surveys report findings but never fail a run.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, fields

from .canonical import automorphism_generators, canonical_key, key_graph, register_enumerated
from .graphs import (
    Graph,
    add_vertex,
    bit_members,
    complement,
    emit_graph6,
    induced_subgraph,
    iter_bits,
    mask_of,
)
from .invariants import (
    DEFAULT_PERFECTION_LIMIT,
    PerfectionChecker,
    chromatic_number,
    clique_number,
    independence_number,
    is_perfect,
)
from .families import replication_prime_clique
from .recognition import (
    RecognitionEngine,
    RecognitionLimitError,
    complement_certificate,
    is_prime_clique,
    prime_cliques,
    prime_independent_sets,
    verify_certificate,
)

REPORT_SCHEMA = "qpreport-v1"
ENUMERATION_LIMIT = 8


class ClassificationInvariantError(RuntimeError):
    """A record claimed quasiperfect with unequal clique and chromatic numbers."""


@dataclass(frozen=True)
class ClassificationRecord:
    graph6: str
    key: str
    n: int
    m: int
    omega: int
    alpha: int
    chi: int
    perfect: bool | None
    quasiperfect: bool
    cert_ref: str | None = None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_classification_record(
    g: Graph,
    *,
    engine: RecognitionEngine,
    checker: PerfectionChecker | None = None,
    cert_ref: str | None = None,
) -> ClassificationRecord:
    """Classify one graph; aborts loudly if a record would be inconsistent.

    The verdict comes from the definition alone, so an accepted graph with
    omega != chi here would contradict Theorem 1.  The verdict is asked
    first, so a graph past the engine's limit raises before any invariant
    is computed.
    """
    quasi = engine.is_quasiperfect(g)
    omega = clique_number(g)
    alpha = independence_number(g)
    chi = chromatic_number(g)
    checker = checker or PerfectionChecker()
    perfect = checker.is_perfect(g) if g.n <= checker.limit else None
    if quasi and omega != chi:
        raise ClassificationInvariantError(
            f"quasiperfect graph with omega={omega} chi={chi}: {emit_graph6(g)}")
    return ClassificationRecord(
        graph6=emit_graph6(g),
        key=canonical_key(g).decode("ascii"),
        n=g.n,
        m=g.m,
        omega=omega,
        alpha=alpha,
        chi=chi,
        perfect=perfect,
        quasiperfect=quasi,
        cert_ref=cert_ref,
    )


@dataclass
class SuiteReport:
    suite: str
    n_max: int
    graphs_scanned: int
    violations: list[str]
    config: dict
    findings: dict | None = None
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        doc = {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "n_max": self.n_max,
            "graphs_scanned": self.graphs_scanned,
            "violations": self.violations,
            "config": self.config,
        }
        if self.findings is not None:
            doc["findings"] = self.findings
        doc["stats"] = {"runtime_seconds": round(self.runtime_seconds, 6)}
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


# ---------------------------------------------------------------------------
# enumeration

# one sorted list of canonical keys per n
_LEVELS: list[list[bytes]] = []


def _subset_orbit_minima(n: int, generators: list[list[int]]) -> list[int]:
    """The smallest mask of each orbit of the generated group on subsets of range(n)."""
    size = 1 << n
    if not generators:
        return list(range(size))
    images = []
    for gamma in generators:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | 1 << gamma[low.bit_length() - 1]
        images.append(image)
    seen = bytearray(size)
    minima = []
    for s in range(size):
        if seen[s]:
            continue
        minima.append(s)
        seen[s] = 1
        stack = [s]
        while stack:
            t = stack.pop()
            for image in images:
                if not seen[image[t]]:
                    seen[image[t]] = 1
                    stack.append(image[t])
    return minima


def _grow_levels(n: int) -> None:
    grown = len(_LEVELS)
    while len(_LEVELS) <= n:
        k = len(_LEVELS)
        if k == 0:
            _LEVELS.append([canonical_key(Graph(0, ()))])
            continue
        keys: set[bytes] = set()
        for parent_key in _LEVELS[k - 1]:
            parent = key_graph(parent_key)
            # the new vertex, of degree |mask|, has maximum degree in the
            # child exactly when |mask| > top, or |mask| == top and it
            # misses every parent vertex of degree top
            top = max((row.bit_count() for row in parent.adj), default=0)
            tops = mask_of(v for v, row in enumerate(parent.adj) if row.bit_count() == top)
            for mask in _subset_orbit_minima(k - 1, automorphism_generators(parent)):
                size = mask.bit_count()
                if size > top or size == top and not mask & tops:
                    keys.add(canonical_key(add_vertex(parent, mask)))
        _LEVELS.append(sorted(keys, key=lambda key: (key_graph(key).m, key)))
    for level in _LEVELS[grown:]:
        for key in level:
            register_enumerated(key)


def enumerate_graphs(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class.

    Each class is the graph its canonical key decodes to, so the list
    depends on the classes alone, not on how enumeration reached them.
    Classes are grown one vertex at a time by canonical augmentation
    (McKay, "Isomorph-free exhaustive generation", J. Algorithms 26,
    1998).  Each class P on n-1 vertices gains a new vertex adjacent to
    one subset per orbit of Aut(P) on vertex subsets: the smallest mask
    of each orbit.  A mask whose new vertex would not be of maximum degree
    is dropped before its child is built, because deleting a vertex of
    higher degree leaves a class with fewer edges, which comes before P.
    The keys of the other children are collected and sorted by edge count
    then key.  The counts for n = 0..8 are 1, 1, 2, 4, 11, 34, 156, 1044
    and 12346 (OEIS A000088).

    Every key of a level is a canonical_key output, so its graph is
    registered with canonical.register_enumerated once the level is made:
    canonical_form then answers it as (key, identity) without a search.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"built-in enumeration covers 0..{ENUMERATION_LIMIT}, got {n}")
    _grow_levels(n)
    return [key_graph(key) for key in _LEVELS[n]]


# ---------------------------------------------------------------------------
# the sweep every suite runs, and its per-graph items

# report configs keep "mode": "pure", the engine's only behaviour, so that
# payloads stay byte-identical
@functools.cache
def _engine() -> RecognitionEngine:
    return RecognitionEngine()


def _sweep(n_max: int, item, threads: int) -> tuple[list[Graph], list]:
    """Every enumerated graph with n <= n_max, and item mapped over them.

    With threads > 1 the items run in a fork pool of at most one process
    per graph and per CPU; item must then be picklable.
    """
    if not 0 <= n_max <= ENUMERATION_LIMIT:
        raise ValueError(f"n_max must be in 0..{ENUMERATION_LIMIT}, got {n_max}")
    graphs = [g for n in range(n_max + 1) for g in enumerate_graphs(n)]
    processes = min(threads, len(graphs), os.cpu_count() or 1)
    if processes <= 1:
        return graphs, [item(g) for g in graphs]
    import multiprocessing  # only here, so that start-up does not pay for it

    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=processes) as pool:
        chunk = max(1, len(graphs) // (processes * 4))
        return graphs, pool.map(item, graphs, chunksize=chunk)


def _report(suite: str, n_max: int, item, summary, config: dict) -> SuiteReport:
    """The timed sweep of item, reported with summary(graphs, results).

    summary returns (violations, findings): the graph6 of each graph that
    breaks an asserted claim, and a survey's findings or None.
    """
    t0 = time.perf_counter()
    graphs, results = _sweep(n_max, item, config["threads"])
    violations, findings = summary(graphs, results)
    return SuiteReport(suite=suite, n_max=n_max, graphs_scanned=len(graphs),
                       violations=violations, config=config, findings=findings,
                       runtime_seconds=time.perf_counter() - t0)


def _violations(graphs: list[Graph], oks: list[bool]) -> tuple[list[str], None]:
    return [emit_graph6(g) for g, ok in zip(graphs, oks) if not ok], None


def _assertion(suite: str, n_max: int, item, threads: int, config: dict) -> SuiteReport:
    """A suite whose item returns False for a graph that violates its claim."""
    return _report(suite, n_max, item, _violations,
                   {"mode": "pure", "reading": "conjunctive", "threads": threads, **config})


def _pure_quasiperfect(g: Graph) -> bool:
    return _engine().is_quasiperfect(g)


def _theorem1_item(g: Graph) -> bool:
    return not _pure_quasiperfect(g) or clique_number(g) == chromatic_number(g)


def _theorem2_item(g: Graph) -> bool:
    """Verdicts of g and its complement agree, and the dual certificate verifies."""
    eng = _engine()
    out = eng.recognize(g)
    dual = complement(g)
    if out.quasiperfect != eng.is_quasiperfect(dual):
        return False
    return not out.quasiperfect or bool(
        verify_certificate(dual, complement_certificate(out.certificate)))


def _perfect_subset_item(g: Graph) -> bool:
    if not is_perfect(g):
        return True
    if not _pure_quasiperfect(g):
        return False
    # g is perfect, so the weight search needs no second odd-hole test
    return g.n == 0 or is_prime_clique(g, replication_prime_clique(g))


def _removal_item(g: Graph) -> list[tuple[int, bool]] | None:
    """Each optimal colour class of g, one per orbit, and whether its residue is accepted.

    S is a colour class of some optimal colouring of g exactly when S is a
    nonempty independent set with chi(g - S) = chi(g) - 1.  If S is a
    class, the other classes colour g - S with chi - 1 colours, and
    chi(g - S) >= chi - 1 always.  Conversely, any (chi - 1)-colouring of
    g - S plus S is optimal.  So no colouring is listed: each orbit of
    Aut(g) on vertex subsets is taken at its smallest mask, kept when it
    passes that test, and its residue is asked of the engine.  Returns
    (mask, accepted) per kept orbit, or None if g is rejected.
    """
    eng = _engine()
    if not eng.is_quasiperfect(g):
        return None
    chi = chromatic_number(g)
    results = []
    for s in _subset_orbit_minima(g.n, automorphism_generators(g)):
        if s and not any(g.adj[v] & s for v in iter_bits(s)):
            residue = induced_subgraph(g, g.vertex_mask & ~s)
            if chromatic_number(residue) == chi - 1:
                results.append((s, eng.is_quasiperfect(residue)))
    return results


@functools.cache
def _either_side(key: bytes) -> bool:
    """The either-side reading of the definition, for the class of key.

    K0 is accepted; any other class is accepted when some prime
    independent set or some prime clique leaves a residue this reading
    accepts.  It yields no certificates.
    """
    g = key_graph(key)
    if g.n == 0:
        return True
    full = g.vertex_mask
    return any(_either_side(canonical_key(induced_subgraph(g, full & ~s)))
               for sets in (prime_independent_sets(g), prime_cliques(g)) for s in sets)


def _divergence_item(g: Graph) -> tuple[bool, bool]:
    return _pure_quasiperfect(g), _either_side(canonical_key(g))


# ---------------------------------------------------------------------------
# suites

def verify_theorem1(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Every accepted graph must have equal clique and chromatic numbers."""
    return _assertion("theorem1", n_max, _theorem1_item, threads, {})


def verify_theorem2(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Complement closure: verdicts agree and dual certificates verify."""
    return _assertion("theorem2", n_max, _theorem2_item, threads, {})


def verify_perfect_subset(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Perfect graphs must be accepted, with a valid replication prime clique."""
    return _assertion("perfect-subset", n_max, _perfect_subset_item, threads,
                      {"perfection_limit": DEFAULT_PERFECTION_LIMIT})


def _removal_findings(graphs: list[Graph], results: list) -> tuple[list[str], dict]:
    accepted = [(g, rows) for g, rows in zip(graphs, results) if rows is not None]
    return [], {
        "graphs_quasiperfect": len(accepted),
        "classes_checked": sum(len(rows) for _, rows in accepted),
        "classes_preserving": sum(ok for _, rows in accepted for _, ok in rows),
        "counterexamples": [{"graph6": emit_graph6(g), "class": bit_members(s)}
                            for g, rows in accepted for s, ok in rows if not ok],
    }


def color_class_removal_survey(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Does removing any colour class of an optimal colouring preserve acceptance?

    Classes are counted once per orbit under Aut(g); each counterexample
    names the smallest mask of its orbit.  Findings never fail the run.
    """
    return _report("color-removal", n_max, _removal_item, _removal_findings,
                   {"mode": "pure", "reading": "conjunctive", "threads": threads})


def _divergence_findings(graphs: list[Graph], results: list) -> tuple[list[str], dict]:
    diverging = [{"graph6": emit_graph6(g), "conjunctive": conj, "disjunctive": disj}
                 for g, (conj, disj) in zip(graphs, results) if conj != disj]
    return [], {"diverging": diverging, "count": len(diverging)}


def reading_divergence_survey(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Where do the one-sided and two-sided readings of the definition differ?"""
    return _report("reading-divergence", n_max, _divergence_item, _divergence_findings,
                   {"mode": "pure", "threads": threads})


SUITES = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "perfect-subset": verify_perfect_subset,
}
SURVEYS = {
    "color-removal": color_class_removal_survey,
    "reading-divergence": reading_divergence_survey,
}
ALL_SUITES = {**SUITES, **SURVEYS}


# ---------------------------------------------------------------------------
# supergraph search

def minimal_qp_supergraph(
    g: Graph, k_max: int = 2, *, engine: RecognitionEngine | None = None
) -> tuple[Graph, int] | None:
    """Smallest extension of g by added vertices that is quasiperfect.

    Tries k = 0..k_max added vertices; for each k, the attachments of the
    new vertices are generated in ascending mask order and tested, the
    engine answering a repeated class from its memo.  Returns the first
    witness (which contains g as an induced subgraph by construction) or
    None.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    if engine is None:
        engine = RecognitionEngine()
    if g.n + k_max > engine.limit:
        raise RecognitionLimitError(
            f"{g.n} + {k_max} added vertices exceeds limit {engine.limit}")
    for k in range(k_max + 1):
        for h in _attachments(g, k):
            if engine.is_quasiperfect(h):
                return h, k
    return None


def _attachments(g: Graph, k: int):
    """g with k vertices added, one neighbourhood mask per orbit at each step.

    Each added vertex takes the smallest mask of each orbit of Aut of the
    graph built so far, in ascending order.  The full search, every mask
    at every step, meets some class first at masks (m1, ..., mk).  Each mi
    is the smallest of its orbit: an automorphism s of the graph before
    step i with s(mi) < mi, extended to fix the later vertices, carries
    that extension to an isomorphic one with masks (m1, ..., s(mi),
    s'(m(i+1)), ...), which the full search, taking mask tuples in
    lexicographic order, meets earlier.  So every class is met here, and
    first at the same graph, and the witness and k that
    minimal_qp_supergraph returns are those of the full search.
    """
    if k == 0:
        yield g
        return
    for mask in _subset_orbit_minima(g.n, automorphism_generators(g)):
        yield from _attachments(add_vertex(g, mask), k - 1)
