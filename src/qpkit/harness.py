"""Exhaustive enumeration and verification sweeps.

All theorem suites run pure-mode recognition so that nothing being
verified is assumed by the prover, and every report echoes its
configuration.  Surveys report findings but never fail a run.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import time
from dataclasses import dataclass

from .canonical import canonical_key, max_codes_batch
from .graphs import (
    Graph,
    complement,
    emit_graph6,
    induced_subgraph,
    parse_graph6,
)
from .invariants import (
    DEFAULT_PERFECTION_LIMIT,
    PerfectionChecker,
    chromatic_number,
    clique_number,
    independence_number,
    is_perfect,
    optimal_colorings,
)
from .families import lovasz_prime_clique
from .recognition import (
    RecognitionEngine,
    complement_certificate,
    coloring_from_certificate,
    is_prime_clique,
    verify_certificate,
)

REPORT_SCHEMA = "qpreport-v1"
ENUMERATION_LIMIT = 8

RECORD_FIELDS = ("graph6", "key", "n", "m", "omega", "alpha", "chi",
                 "perfect", "quasiperfect", "cert_ref")


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
        return {f: getattr(self, f) for f in RECORD_FIELDS}


def build_classification_record(
    g: Graph,
    *,
    engine: RecognitionEngine,
    checker: PerfectionChecker | None = None,
    cert_ref: str | None = None,
) -> ClassificationRecord:
    """Classify one graph; aborts loudly if a record would be inconsistent."""
    omega = clique_number(g)
    alpha = independence_number(g)
    chi = chromatic_number(g)
    checker = checker or PerfectionChecker()
    perfect = checker.is_perfect(g) if g.n <= checker.limit else None
    quasi = engine.is_quasiperfect(g)
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


def write_records_csv(records: list[ClassificationRecord], stream: io.TextIOBase) -> None:
    writer = csv.DictWriter(stream, fieldnames=RECORD_FIELDS)
    writer.writeheader()
    for rec in records:
        writer.writerow(rec.to_dict())


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

_LEVELS: list[list[Graph]] = []


def _grow_levels(n: int) -> None:
    while len(_LEVELS) <= n:
        k = len(_LEVELS)
        if k == 0:
            _LEVELS.append([Graph(0, ())])
            continue
        candidates: list[Graph] = []
        for parent in _LEVELS[k - 1]:
            for mask in range(1 << (k - 1)):
                adj = [row | ((mask >> v & 1) << (k - 1))
                       for v, row in enumerate(parent.adj)]
                adj.append(mask)
                candidates.append(Graph(k, tuple(adj)))
        reps: dict[bytes, Graph] = {}
        for g, key in zip(candidates, max_codes_batch(candidates, k)):
            reps.setdefault(key, g)
        ranked = sorted(reps.items(), key=lambda item: (item[1].m, item[0]))
        _LEVELS.append([g for _, g in ranked])


def enumerate_graphs(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class.

    Classes are found by extending each (n-1)-vertex class with every
    possible new-vertex neighborhood and deduplicating on canonical
    keys; the result is sorted by edge count then canonical key.
    """
    if not 0 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"built-in enumeration covers 0..{ENUMERATION_LIMIT}, got {n}")
    _grow_levels(n)
    return list(_LEVELS[n])


def _scan_graph6(n_max: int) -> list[str]:
    return [emit_graph6(g) for n in range(n_max + 1) for g in enumerate_graphs(n)]


# ---------------------------------------------------------------------------
# per-graph suite work, shared by the serial and multiprocess paths

_state: dict[str, object] = {}


def _pure_engine() -> RecognitionEngine:
    eng = _state.get("pure")
    if eng is None:
        eng = RecognitionEngine(mode="pure")
        _state["pure"] = eng
    return eng


def _disjunctive_engine() -> RecognitionEngine:
    eng = _state.get("disjunctive")
    if eng is None:
        eng = RecognitionEngine(mode="pure", reading="disjunctive")
        _state["disjunctive"] = eng
    return eng


def _parallel(fn, items: list, threads: int) -> list:
    if threads <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    threads = min(threads, len(items))
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=threads) as pool:
        chunk = max(1, len(items) // (threads * 4))
        return pool.map(fn, items, chunksize=chunk)


def _theorem1_item(g6: str) -> tuple[str, bool, bool]:
    g = parse_graph6(g6)
    qp = _pure_engine().is_quasiperfect(g)
    equal = clique_number(g) == chromatic_number(g) if qp else True
    return g6, qp, equal


def _theorem2_item(g6: str) -> tuple[str, bool]:
    g = parse_graph6(g6)
    eng = _pure_engine()
    out = eng.recognize(g)
    out_c = eng.recognize(complement(g))
    if out.quasiperfect != out_c.quasiperfect:
        return g6, False
    if out.quasiperfect:
        dual = complement_certificate(out.certificate)
        if not verify_certificate(complement(g), dual):
            return g6, False
    return g6, True


def _perfect_subset_item(g6: str) -> tuple[str, bool]:
    g = parse_graph6(g6)
    if not is_perfect(g):
        return g6, True
    if not _pure_engine().is_quasiperfect(g):
        return g6, False
    if g.n >= 1 and not is_prime_clique(g, lovasz_prime_clique(g)):
        return g6, False
    return g6, True


def _removal_item(args: tuple[str, bool]) -> tuple[str, bool, list[bool]]:
    g6, sweep_all = args
    g = parse_graph6(g6)
    eng = _pure_engine()
    out = eng.recognize(g)
    if not out.quasiperfect:
        return g6, False, []
    results: list[bool] = []
    coloring = coloring_from_certificate(g, out.certificate)
    classes = sorted({c for c in coloring.values()})
    partitions = [[sorted(v for v, c in coloring.items() if c == cls)
                   for cls in classes]]
    if sweep_all:
        partitions = []
        for assignment in optimal_colorings(g):
            count = max(assignment) + 1 if assignment else 0
            partitions.append([
                [v for v, c in enumerate(assignment) if c == cls]
                for cls in range(count)])
    for part in partitions:
        for cls_vertices in part:
            mask = 0
            for v in cls_vertices:
                mask |= 1 << v
            residue = induced_subgraph(g, g.vertex_mask & ~mask)
            results.append(eng.is_quasiperfect(residue))
    return g6, True, results


def _divergence_item(g6: str) -> tuple[str, bool, bool]:
    g = parse_graph6(g6)
    return g6, _pure_engine().is_quasiperfect(g), _disjunctive_engine().is_quasiperfect(g)


# ---------------------------------------------------------------------------
# suites

def verify_theorem1(n_max: int, *, threads: int = 1, recognizer=None) -> SuiteReport:
    """Every accepted graph must have equal clique and chromatic numbers.

    A custom recognizer callable can be injected so the suite itself can
    be tested against deliberately corrupted recognizers.
    """
    t0 = time.perf_counter()
    g6s = _scan_graph6(n_max)
    if recognizer is None:
        results = _parallel(_theorem1_item, g6s, threads)
    else:
        results = []
        for g6 in g6s:
            g = parse_graph6(g6)
            qp = bool(recognizer(g))
            equal = clique_number(g) == chromatic_number(g) if qp else True
            results.append((g6, qp, equal))
    violations = [g6 for g6, qp, equal in results if qp and not equal]
    return SuiteReport(
        suite="theorem1",
        n_max=n_max,
        graphs_scanned=len(g6s),
        violations=violations,
        config={"mode": "pure", "reading": "conjunctive", "threads": threads},
        runtime_seconds=time.perf_counter() - t0,
    )


def verify_theorem2(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Complement closure: verdicts agree and dual certificates verify."""
    t0 = time.perf_counter()
    g6s = _scan_graph6(n_max)
    results = _parallel(_theorem2_item, g6s, threads)
    violations = [g6 for g6, ok in results if not ok]
    return SuiteReport(
        suite="theorem2",
        n_max=n_max,
        graphs_scanned=len(g6s),
        violations=violations,
        config={"mode": "pure", "reading": "conjunctive", "threads": threads},
        runtime_seconds=time.perf_counter() - t0,
    )


def verify_perfect_subset(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Perfect graphs must be accepted, with a valid replication prime clique."""
    t0 = time.perf_counter()
    g6s = _scan_graph6(n_max)
    results = _parallel(_perfect_subset_item, g6s, threads)
    violations = [g6 for g6, ok in results if not ok]
    return SuiteReport(
        suite="perfect-subset",
        n_max=n_max,
        graphs_scanned=len(g6s),
        violations=violations,
        config={"mode": "pure", "reading": "conjunctive", "threads": threads,
                "perfection_limit": DEFAULT_PERFECTION_LIMIT},
        runtime_seconds=time.perf_counter() - t0,
    )


def color_class_removal_survey(
    n_max: int, *, threads: int = 1, all_colorings: bool = False
) -> SuiteReport:
    """Does removing one color class of an optimal coloring preserve the property?

    By construction the certificate's own top color class does; the other
    classes are the open part.  Findings never fail the run.  With
    all_colorings set, every optimal partition is swept (n <= 5 only).
    """
    t0 = time.perf_counter()
    if all_colorings and n_max > 5:
        raise ValueError("full coloring sweep is limited to n_max <= 5")
    g6s = _scan_graph6(n_max)
    results = _parallel(_removal_item, [(g6, all_colorings) for g6 in g6s], threads)
    checked = 0
    preserved = 0
    counterexamples: list[dict] = []
    accepted = 0
    for g6, qp, outcomes in results:
        if not qp:
            continue
        accepted += 1
        for idx, ok in enumerate(outcomes):
            checked += 1
            if ok:
                preserved += 1
            else:
                counterexamples.append({"graph6": g6, "class_index": idx})
    findings = {
        "graphs_quasiperfect": accepted,
        "classes_checked": checked,
        "classes_preserving": preserved,
        "counterexamples": counterexamples,
        "all_colorings": all_colorings,
    }
    return SuiteReport(
        suite="color-removal",
        n_max=n_max,
        graphs_scanned=len(g6s),
        violations=[],
        config={"mode": "pure", "reading": "conjunctive", "threads": threads,
                "all_colorings": all_colorings},
        findings=findings,
        runtime_seconds=time.perf_counter() - t0,
    )


def reading_divergence_survey(n_max: int, *, threads: int = 1) -> SuiteReport:
    """Where do the one-sided and two-sided readings of the definition differ?"""
    t0 = time.perf_counter()
    g6s = _scan_graph6(n_max)
    results = _parallel(_divergence_item, g6s, threads)
    diverging = [
        {"graph6": g6, "conjunctive": conj, "disjunctive": disj}
        for g6, conj, disj in results
        if conj != disj
    ]
    findings = {
        "diverging": diverging,
        "count": len(diverging),
    }
    return SuiteReport(
        suite="reading-divergence",
        n_max=n_max,
        graphs_scanned=len(g6s),
        violations=[],
        config={"mode": "pure", "threads": threads},
        findings=findings,
        runtime_seconds=time.perf_counter() - t0,
    )


ALL_SUITES = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "perfect-subset": verify_perfect_subset,
    "color-removal": color_class_removal_survey,
    "reading-divergence": reading_divergence_survey,
}


# ---------------------------------------------------------------------------
# supergraph search

def minimal_qp_supergraph(
    g: Graph, k_max: int = 2, *, engine: RecognitionEngine | None = None
) -> tuple[Graph, int] | None:
    """Smallest extension of g by added vertices that is quasiperfect.

    Tries k = 0..k_max added vertices; for each k, every attachment of
    the new vertices is generated in ascending mask order, deduplicated
    by canonical key, and tested.  Returns the first witness (which
    contains g as an induced subgraph by construction) or None.
    """
    if engine is None:
        engine = RecognitionEngine(mode="accelerated")
    if g.n + k_max > engine.limit:
        from .recognition import RecognitionLimitError
        raise RecognitionLimitError(
            f"{g.n} + {k_max} added vertices exceeds limit {engine.limit}")
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    for k in range(k_max + 1):
        seen: set[bytes] = set()
        for h in _attachments(g, k):
            key = canonical_key(h)
            if key in seen:
                continue
            seen.add(key)
            if engine.is_quasiperfect(h):
                return h, k
    return None


def _attachments(g: Graph, k: int):
    if k == 0:
        yield g
        return

    def extend(cur: Graph, remaining: int):
        if remaining == 0:
            yield cur
            return
        v = cur.n
        for mask in range(1 << v):
            adj = [row | ((mask >> u & 1) << v) for u, row in enumerate(cur.adj)]
            adj.append(mask)
            yield from extend(Graph(v + 1, tuple(adj)), remaining - 1)
    yield from extend(g, k)
