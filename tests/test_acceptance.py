"""Release gate: the eight acceptance checks with their runtime budgets.

Each test prints exactly one line, e.g.:

    acceptance 1 theorem1-sweep: PASS (209 graphs, 0 violations, 0.2s)

All checks are exact and deterministic; budgets are generous ceilings so a
pass on any reasonable machine is meaningful.
"""

import itertools
import time

import pytest

import oracles
from qpkit.families import (
    FamilySpec,
    c5_blowup_with_apex,
    family_prime_clique,
    family_prime_independent_set,
    lovasz_prime_clique,
    odd_cycle_family,
)
from qpkit.graphs import cycle_graph, induced_subgraph
from qpkit.harness import (
    enumerate_graphs,
    verify_perfect_subset,
    verify_theorem1,
    verify_theorem2,
)
from qpkit.invariants import (
    chromatic_number,
    clique_number,
    is_block_graph,
    is_forest,
)
from qpkit.recognition import (
    RecognitionEngine,
    coloring_from_certificate,
    prime_independent_sets,
    verify_certificate,
)

pytestmark = pytest.mark.acceptance


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_1_theorem1_sweep(capsys):
    t0 = time.perf_counter()
    report = verify_theorem1(6)
    dt = time.perf_counter() - t0
    ok = (report.passed and report.graphs_scanned == 209 and dt < 60)
    _report(capsys, "1 theorem1-sweep", ok,
            f"{report.graphs_scanned} graphs, {len(report.violations)} "
            f"violations, {dt:.1f}s")


def test_2_theorem2_sweep(capsys):
    t0 = time.perf_counter()
    report = verify_theorem2(6)
    dt = time.perf_counter() - t0
    ok = report.passed and report.graphs_scanned == 209 and dt < 120
    _report(capsys, "2 theorem2-sweep", ok,
            f"{report.graphs_scanned} graphs, {len(report.violations)} "
            f"violations, complement certificates re-verified, {dt:.1f}s")


def test_3_perfect_subset(capsys):
    t0 = time.perf_counter()
    report = verify_perfect_subset(6)
    dt = time.perf_counter() - t0
    ok = report.passed and dt < 120
    _report(capsys, "3 perfect-subset", ok,
            f"{report.graphs_scanned} graphs, {len(report.violations)} "
            f"violations incl. replication-derived prime cliques, {dt:.1f}s")


def test_4_family_acceptance(capsys):
    t0 = time.perf_counter()
    engine = RecognitionEngine(limit=14)
    checked = 0
    failures = []
    for n in (5, 7):
        for o in range(1, n + 1):
            for pos in itertools.combinations(range(1, n + 1), o):
                fg = odd_cycle_family(FamilySpec(n, pos))
                full = fg.graph.vertex_mask
                out = engine.recognize(fg.graph)
                if not (out.quasiperfect
                        and verify_certificate(fg.graph, out.certificate)):
                    failures.append((n, pos, "recognition"))
                    continue
                pk = family_prime_clique(fg)
                if not is_block_graph(induced_subgraph(fg.graph, full & ~pk)):
                    failures.append((n, pos, "pk-residue"))
                    continue
                pi = family_prime_independent_set(fg)
                if not is_forest(induced_subgraph(fg.graph, full & ~pi)):
                    failures.append((n, pos, "pi-residue"))
                    continue
                checked += 1
    dt = time.perf_counter() - t0
    ok = not failures and checked == 31 + 127 and dt < 300
    _report(capsys, "4 family-sweep", ok,
            f"{checked} specs over n=5,7, {len(failures)} failures, {dt:.1f}s")


def test_5_blowup_counterexample(capsys):
    t0 = time.perf_counter()
    g3 = c5_blowup_with_apex(3)
    edges3 = oracles.graph_edges(g3)
    g1 = c5_blowup_with_apex(1)
    got = (
        clique_number(g3), chromatic_number(g3),
        oracles.oracle_omega(g3.n, edges3),
        oracles.oracle_chromatic(g3.n, edges3),
        clique_number(g1), chromatic_number(g1),
    )
    dt = time.perf_counter() - t0
    ok = got == (7, 8, 7, 8, 3, 3) and dt < 60
    _report(capsys, "5 blowup-gap", ok,
            f"t=3 omega={got[0]} chi={got[1]} (oracle {got[2]}/{got[3]}), "
            f"t=1 omega=chi={got[4]}, {dt:.1f}s")


def test_6_c5_negative(capsys):
    t0 = time.perf_counter()
    g = cycle_graph(5)
    out = RecognitionEngine().recognize(g)
    pis = list(prime_independent_sets(g))
    dt = time.perf_counter() - t0
    ok = (not out.quasiperfect) and pis == [] and dt < 1
    _report(capsys, "6 c5-negative", ok,
            f"quasiperfect={out.quasiperfect}, "
            f"{len(pis)} prime independent sets, {dt:.2f}s")


def test_7_certificate_soundness(capsys):
    t0 = time.perf_counter()
    engine = RecognitionEngine()
    accepted = 0
    failures = 0
    for n in range(7):
        for g in enumerate_graphs(n):
            out = engine.recognize(g)
            if not out.quasiperfect:
                continue
            accepted += 1
            if not verify_certificate(g, out.certificate):
                failures += 1
                continue
            coloring = coloring_from_certificate(g, out.certificate)
            if g.n == 0:
                continue
            proper = all(coloring[u] != coloring[v]
                         for u in range(g.n) for v in range(u + 1, g.n)
                         if g.has_edge(u, v))
            if not (proper
                    and len(set(coloring.values())) == clique_number(g)):
                failures += 1
    dt = time.perf_counter() - t0
    ok = failures == 0 and accepted == 202
    _report(capsys, "7 certificate-soundness", ok,
            f"{accepted} accepted graphs at n<=6, {failures} failures, "
            f"{dt:.1f}s")


def test_8_enumerator_counts(capsys):
    t0 = time.perf_counter()
    got = [len(enumerate_graphs(n)) for n in range(8)]
    dt = time.perf_counter() - t0
    want = [1, 1, 2, 4, 11, 34, 156, 1044]
    ok = got == want and dt < 120
    _report(capsys, "8 enumerator-counts", ok,
            f"n=0..7 -> {got}, {dt:.1f}s")
