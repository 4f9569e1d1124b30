"""Enumeration, verification suites, records, and the supergraph search."""

import collections
import functools
import hashlib
import itertools
import json
import multiprocessing
import re
import subprocess
import sys

import pytest

import oracles
from qpkit import families, harness, invariants
from qpkit.canonical import canonical_form, canonical_key, key_graph
from qpkit.graphs import (
    add_vertex,
    bit_members,
    complete_graph,
    cycle_graph,
    empty_graph,
    emit_graph6,
    from_edges,
    induced_subgraph,
    parse_graph6,
)
from qpkit.harness import (
    ALL_SUITES,
    ClassificationInvariantError,
    build_classification_record,
    color_class_removal_survey,
    enumerate_graphs,
    minimal_qp_supergraph,
    reading_divergence_survey,
    verify_perfect_subset,
    verify_theorem1,
    verify_theorem2,
)
from qpkit.invariants import PerfectionChecker
from qpkit.recognition import (
    QpCertificate,
    RecognitionEngine,
    RecognitionLimitError,
    is_prime_clique,
)


# OEIS A000088
KNOWN_CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
# perfect graphs, OEIS A052431
KNOWN_PERFECT_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 33, 6: 148, 7: 906}


class TestEnumeration:
    @pytest.mark.parametrize("n", range(9))
    def test_counts(self, n):
        assert len(enumerate_graphs(n)) == KNOWN_CLASS_COUNTS[n]

    def test_same_sequence_as_extending_every_candidate(self):
        # canonical augmentation reaches every class, in the old loop's order
        reference = oracles.enumerate_by_extension(7)
        for n in range(8):
            assert [canonical_key(g) for g in enumerate_graphs(n)] == reference[n]

    def test_each_graph_is_its_keys_graph(self):
        # so sweeps and reports depend on the classes alone, not on which
        # labeled child enumeration reached first
        for n in range(8):
            for g in enumerate_graphs(n):
                assert g == key_graph(canonical_key(g))

    def test_cold_enumeration_keeps_the_labeling_cache_unfilled(self, monkeypatch):
        # labeling every candidate up to n = 8 (144,923 graphs) cycled the
        # whole cache; one subset per orbit and the degree test label 19,912
        monkeypatch.setattr(harness, "_LEVELS", [])
        canonical_form.cache_clear()
        assert len(enumerate_graphs(8)) == 12346
        info = canonical_form.cache_info()
        assert info.currsize < info.maxsize
        assert info.misses < 25_000

    def test_builds_only_the_children_it_keeps(self, monkeypatch):
        # the maximum-degree rule is decided from the mask before the
        # child is built: building every orbit's child up to n = 7 made
        # 5,759 graphs to keep 1,640; the levels are the same
        reference = oracles.enumerate_by_extension(7)
        built = [0]

        def counting(g, mask):
            built[0] += 1
            return add_vertex(g, mask)

        monkeypatch.setattr(harness, "_LEVELS", [])
        monkeypatch.setattr(harness, "add_vertex", counting)
        assert [[canonical_key(g) for g in enumerate_graphs(n)] for n in range(8)] == reference
        assert built == [1640]

    def test_no_isomorphic_pair(self):
        for n in range(6):
            keys = [canonical_key(g) for g in enumerate_graphs(n)]
            assert len(keys) == len(set(keys))

    def test_against_permutation_enumerator(self):
        for n in range(6):
            reps = oracles.enumerate_classes_by_permutation(n)
            assert len(enumerate_graphs(n)) == len(reps)
            ours = {canonical_key(g) for g in enumerate_graphs(n)}
            theirs = {canonical_key(from_edges(m, e)) for m, e in reps}
            assert ours == theirs

    def test_deterministic_order(self):
        a = [emit_graph6(g) for g in enumerate_graphs(5)]
        b = [emit_graph6(g) for g in enumerate_graphs(5)]
        assert a == b

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_graphs(9)
        with pytest.raises(ValueError):
            enumerate_graphs(-1)


class TestWorkCounts:
    """Deterministic work counters of `verify all --n-max 7` in a new process.

    The probe prints the exit code, the labeling searches
    (_canonical_refined calls), the refinements (_refine calls), the node
    shape tests of the certificate walk (_well_formed calls), the node
    checks (_verify_node calls), the complement labelings of dual
    certificates (_complement_form calls) and the canonical_form cache
    misses.  The CI python310 job runs the same probe.  Before engine
    certificates were views of the memo and enumerated graphs were
    answered without a search, the first five counts and the misses read
    4629, 9341, 24632, 12316 and 4420: every theorem2 certificate was
    walked node by node, twice, and theorem1 labeled 686 key graphs anew.
    While _complement_form was memoized per process, _translate asked it
    again for each root and each child key, 9516 calls in all, and the
    walk of a view tested no node's shape (0 _well_formed calls).
    """

    PROBE = (
        "import collections, os; from qpkit import canonical, cli, recognition; "
        "calls = collections.Counter(); "
        "names = [(canonical, '_canonical_refined'), (canonical, '_refine'), "
        "(recognition, '_well_formed'), (recognition, '_verify_node'), "
        "(recognition, '_complement_form')]; "
        "wrap = lambda mod, name, inner: setattr("
        "mod, name, lambda *a: (calls.update([name]), inner(*a))[1]); "
        "[wrap(mod, name, getattr(mod, name)) for mod, name in names]; "
        "code = cli.main(['verify', 'all', '--n-max', '7', '--out', os.devnull]); "
        "print(code, *(calls[name] for _, name in names), "
        "canonical.canonical_form.cache_info().misses)"
    )

    def test_verify_all_to_seven(self):
        proc = subprocess.run([sys.executable, "-c", self.PROBE], capture_output=True,
                              text=True, check=True)
        assert proc.stdout.split() == ["0", "3943", "8139", "1191", "1191", "3574", "4420"]


class TestClassCensus:
    @pytest.mark.parametrize("n", range(8))
    def test_perfect_counts(self, n):
        perfect = sum(invariants.is_perfect(g) for g in enumerate_graphs(n))
        assert perfect == KNOWN_PERFECT_COUNTS[n]

    def test_hereditarily_accepted_is_perfect_up_to_seven(self):
        # G is hereditarily accepted when it and every induced subgraph are
        # accepted.  Perfect graphs are accepted (perfect-subset) and
        # perfection is hereditary; odd holes and antiholes have omega <
        # chi, so theorem1 rejects them; by the Strong Perfect Graph
        # Theorem the two classes are then one.  Only engine verdicts
        # decide it, so a fault in recognition or in is_perfect shows here
        eng = RecognitionEngine()

        @functools.cache
        def hereditary(key):
            g = key_graph(key)
            return eng.is_quasiperfect(g) and all(
                hereditary(canonical_key(induced_subgraph(g, g.vertex_mask & ~(1 << v))))
                for v in range(g.n))

        for n in range(8):
            for g in enumerate_graphs(n):
                assert hereditary(canonical_key(g)) == invariants.is_perfect(g), emit_graph6(g)


class TestClassificationRecords:
    def test_fields(self):
        eng = RecognitionEngine()
        rec = build_classification_record(cycle_graph(5), engine=eng)
        assert rec.graph6 == emit_graph6(cycle_graph(5))
        assert (rec.omega, rec.alpha, rec.chi) == (2, 2, 3)
        assert rec.perfect is False
        assert rec.quasiperfect is False
        assert rec.cert_ref is None

    def test_perfect_none_over_limit(self):
        eng = RecognitionEngine(limit=20)
        rec = build_classification_record(
            complete_graph(15), engine=eng,
            checker=PerfectionChecker(limit=10))
        assert rec.perfect is None
        assert rec.quasiperfect is True

    def test_crosscheck_guard(self):
        class LyingEngine:
            def recognize(self, g):
                class Out:
                    quasiperfect = True
                    certificate = None
                return Out()

            def is_quasiperfect(self, g):
                return True

        with pytest.raises(ClassificationInvariantError):
            build_classification_record(cycle_graph(5), engine=LyingEngine())


class TestTheoremSuites:
    def test_theorem1_clean(self):
        report = verify_theorem1(5)
        assert report.passed
        assert report.graphs_scanned == 53
        assert report.violations == []

    def test_theorem1_catches_corrupt_recognizer(self, monkeypatch):
        c5_key = canonical_key(cycle_graph(5))
        real = harness._pure_quasiperfect
        monkeypatch.setattr(harness, "_pure_quasiperfect",
                            lambda g: canonical_key(g) == c5_key or real(g))
        report = verify_theorem1(5)
        assert not report.passed
        assert any(parse_graph6(g6).n == 5 for g6 in report.violations)

    def test_theorem2_clean(self):
        report = verify_theorem2(5)
        assert report.passed

    def test_perfect_subset_clean(self):
        report = verify_perfect_subset(5)
        assert report.passed

    def test_theorem2_catches_tampered_dual_certificate(self, monkeypatch):
        real = harness.complement_certificate

        def flip_root_pk_bit(cert):
            dual = real(cert)
            if dual.key not in dual.nodes:
                return dual
            pi, pk, pi_child, pk_child = dual.nodes[dual.key]
            nodes = {**dual.nodes, dual.key: (pi, pk ^ 1, pi_child, pk_child)}
            return QpCertificate(dual.key, dual.order, nodes)

        monkeypatch.setattr(harness, "complement_certificate", flip_root_pk_bit)
        report = verify_theorem2(5)
        assert not report.passed
        assert "@" in report.violations  # K1: its dual's only prime clique is {0}

    def test_theorem2_catches_flipped_complement_verdict(self, monkeypatch):
        # the item asks is_quasiperfect for the complement's verdict only
        real = RecognitionEngine.is_quasiperfect
        monkeypatch.setattr(RecognitionEngine, "is_quasiperfect",
                            lambda self, g: not real(self, g))
        report = verify_theorem2(4)
        assert len(report.violations) == report.graphs_scanned == 19

    def test_perfect_subset_catches_non_prime_clique(self, monkeypatch):
        real = harness.replication_prime_clique

        def drop_lowest_vertex(g):
            q = real(g)
            return q & (q - 1)

        monkeypatch.setattr(harness, "replication_prime_clique", drop_lowest_vertex)
        report = verify_perfect_subset(4)
        assert not report.passed
        assert "@" in report.violations  # K1 is left the empty set
        for g6 in report.violations:
            g = parse_graph6(g6)
            assert not is_prime_clique(g, drop_lowest_vertex(g))

    def test_perfect_subset_tests_each_graph_once_for_perfection(self, monkeypatch):
        calls = []
        real = harness.is_perfect
        monkeypatch.setattr(harness, "is_perfect", lambda g: calls.append(g) or real(g))
        monkeypatch.setattr(families, "is_perfect", lambda g: pytest.fail("second test"))
        report = verify_perfect_subset(5)
        assert report.passed
        assert len(calls) == report.graphs_scanned == 53

    def test_theorem1_item_lists_maximal_cliques_once_per_graph(self, monkeypatch):
        # omega and chi both read one clique enumeration of g; the stand-in
        # recognizer accepts everything, so every graph reaches both
        calls = collections.Counter()
        real = invariants.maximal_cliques
        monkeypatch.setattr(invariants, "maximal_cliques",
                            lambda g: calls.update([g]) or real(g))
        monkeypatch.setattr(harness, "_pure_quasiperfect", lambda g: True)
        invariants._maximum_cliques.cache_clear()
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n)]
        for g in graphs:
            harness._theorem1_item(g)
        assert set(calls) == set(graphs)
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("suite", sorted(ALL_SUITES))
    def test_parallel_matches_serial(self, suite):
        serial = ALL_SUITES[suite](5, threads=1).to_json_dict()
        threaded = ALL_SUITES[suite](5, threads=2).to_json_dict()
        for doc in (serial, threaded):
            doc.pop("stats")
            doc["config"].pop("threads")
        assert serial == threaded

    # sha256 of each report's to_json() text up to n = 6, the stats member
    # cut out
    PAYLOAD_DIGESTS = {
        "color-removal": "d0dde66608dbd4b5d6a824b7a3ecda4a0a884bb4a0fab07f3800c521fcf3e382",
        "perfect-subset": "a6281cb50bb60752cc7d01492b37e2f94a8547c8c48569dfc6571298a171782a",
        "reading-divergence": "becbd1c876741b81cb01a80ac4ab767ab2b035935369e1dc943aff22f09bef40",
        "theorem1": "a41e9b67d30b4eb1d3cb8acd8b983449591599c34e1f2cd30e8f6dd7cbb1648a",
        "theorem2": "cf55e0abd9a1e206afbf4b9e14f653a7b54b38c9c60eb7491a150346a8e67ed2",
    }
    STATS = re.compile(r',\n  "stats": \{\n    "runtime_seconds": [0-9.e-]+\n  \}')

    @pytest.mark.parametrize("suite", sorted(ALL_SUITES))
    def test_payload_bytes_up_to_six(self, suite):
        # the whole layout, not only the counts: a member moved, renamed,
        # added or dropped fails here
        text, cut = self.STATS.subn("", ALL_SUITES[suite](6).to_json())
        assert cut == 1
        assert hashlib.sha256(text.encode()).hexdigest() == self.PAYLOAD_DIGESTS[suite]

    @staticmethod
    def _record_pools(monkeypatch, cpus):
        """Sizes of the pools the suites open, with the CPU count set to cpus."""
        opened = []

        class RecordingPool:
            # stands in for multiprocessing's Pool so no process is started
            def __init__(self, processes):
                opened.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return [fn(x) for x in items]

        class Context:
            Pool = RecordingPool

        monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        return opened

    @pytest.mark.parametrize("n_max,threads,processes", [(2, 64, 4), (4, 3, 3)])
    def test_pool_never_larger_than_items(self, monkeypatch, n_max, threads, processes):
        opened = self._record_pools(monkeypatch, cpus=64)
        report = verify_theorem1(n_max, threads=threads)
        assert opened == [processes]
        assert report.passed
        assert report.config["threads"] == threads  # the request is echoed as given

    @pytest.mark.parametrize("cpus,opened_sizes", [(2, [2]), (None, [])])
    def test_pool_never_larger_than_cpus(self, monkeypatch, cpus, opened_sizes):
        # os.cpu_count() may return None; one CPU runs the items serially
        opened = self._record_pools(monkeypatch, cpus)
        report = verify_theorem1(4, threads=64)
        assert opened == opened_sizes
        assert report.passed
        assert report.config["threads"] == 64

    @pytest.mark.parametrize("suite", sorted(ALL_SUITES))
    @pytest.mark.parametrize("n_max", [-1, 9])
    def test_n_max_out_of_range(self, suite, n_max):
        with pytest.raises(ValueError):
            ALL_SUITES[suite](n_max)

    def test_report_shape(self):
        report = verify_theorem1(4)
        doc = report.to_json_dict()
        assert doc["schema"] == "qpreport-v1"
        assert list(doc)[0] == "schema"
        assert "runtime_seconds" in doc["stats"]
        blob = report.to_json()
        assert json.loads(blob) == doc


# each counterexample class at n = 7 by its key, with the smallest vertex
# set of its one failing orbit
SEVEN_VERTEX_COUNTEREXAMPLES = [("FaK|W", [2]), ("FDZJw", [1]), ("FSTjw", [1]),
                                ("FXT[w", [3]), ("FBnbw", [2]), ("FXU]w", [3])]

# another labeling of each class, with its failing orbit there, and its key
RELABELED_COUNTEREXAMPLES = [("FEhug", [1], "FaK|W"), ("FEhuw", [1], "FDZJw"),
                             ("FEhvg", [1], "FSTjw"), ("FEvdo", [0], "FXT[w"),
                             ("FEnew", [0], "FBnbw"), ("FEnfo", [0], "FXU]w")]


def _oracle_class_orbits(g):
    """The colour classes of every optimal colouring of g (oracle), and the
    smallest image of each under every automorphism, found by trying all
    n! permutations."""
    edges = oracles.graph_edges(g)
    edge_set = {frozenset(e) for e in edges}
    auts = [p for p in itertools.permutations(range(g.n))
            if all(frozenset((p[u], p[v])) in edge_set for u, v in edges)]
    found = {frozenset(v for v, c in enumerate(vec) if c == k)
             for vec in oracles.oracle_optimal_colorings(g.n, edges) for k in set(vec)}
    return found, {min(sum(1 << p[v] for v in s) for p in auts) for s in found}


class TestSurveys:
    def test_color_removal_structure(self):
        report = color_class_removal_survey(5)
        assert report.passed  # surveys never record violations
        f = report.findings
        assert f["graphs_quasiperfect"] == 52
        assert f["classes_checked"] == f["classes_preserving"] + len(
            f["counterexamples"])

    def test_color_removal_findings_up_to_seven(self):
        report = color_class_removal_survey(7)
        f = report.findings
        assert (f["graphs_quasiperfect"], f["classes_checked"],
                f["classes_preserving"]) == (1192, 7261, 7255)
        assert f["counterexamples"] == [{"graph6": g6, "class": cls}
                                        for g6, cls in SEVEN_VERTEX_COUNTEREXAMPLES]
        assert "all_colorings" not in report.config

    def test_color_removal_classes_match_the_oracle_up_to_six(self):
        eng = RecognitionEngine()
        accepted = classes = 0
        for n in range(7):
            for g in enumerate_graphs(n):
                rows = harness._removal_item(g)
                if rows is None:
                    assert not eng.is_quasiperfect(g)
                    continue
                found, minima = _oracle_class_orbits(g)
                assert [s for s, _ in rows] == sorted(minima)
                assert all(ok for _, ok in rows)
                accepted += 1
                classes += len(found)
        # every colour class of every optimal colouring, before orbit reduction
        assert (accepted, classes) == (202, 1414)

    @pytest.mark.parametrize("g6, cls, key", RELABELED_COUNTEREXAMPLES,
                             ids=[g6 for g6, _, _ in RELABELED_COUNTEREXAMPLES])
    def test_color_removal_counterexamples_at_seven(self, g6, cls, key):
        # the sweep's rows on a labeling that is not the key's
        g = parse_graph6(g6)
        assert canonical_key(g).decode() == key
        rows = harness._removal_item(g)
        _, minima = _oracle_class_orbits(g)
        assert [s for s, _ in rows] == sorted(minima)
        assert [bit_members(s) for s, ok in rows if not ok] == [cls]
        for s, ok in rows:
            residue = induced_subgraph(g, g.vertex_mask & ~s)
            assert ok == oracles.oracle_quasiperfect(residue.n, oracles.graph_edges(residue))

    def test_divergence_first_appears_at_six(self):
        assert reading_divergence_survey(5).findings["count"] == 0
        report = reading_divergence_survey(6)
        assert report.findings["count"] == 4
        for row in report.findings["diverging"]:
            assert row["conjunctive"] is False
            assert row["disjunctive"] is True


class TestSupergraphSearch:
    def test_c5_needs_one_vertex(self):
        found = minimal_qp_supergraph(cycle_graph(5))
        assert found is not None
        witness, added = found
        assert added == 1
        assert witness.n == 6
        assert RecognitionEngine().is_quasiperfect(witness)

    def test_already_quasiperfect(self):
        witness, added = minimal_qp_supergraph(complete_graph(3))
        assert added == 0
        assert witness == complete_graph(3)

    def test_respects_limit(self):
        eng = RecognitionEngine(limit=6)
        with pytest.raises(RecognitionLimitError):
            minimal_qp_supergraph(cycle_graph(5), k_max=2, engine=eng)

    def test_negative_k_max_is_a_value_error_before_the_limit(self):
        # 14 vertices already exceed the default limit of 12
        with pytest.raises(ValueError, match="k_max"):
            minimal_qp_supergraph(empty_graph(14), k_max=-1)

    def test_none_when_no_extension_found(self):
        eng = RecognitionEngine(limit=13)
        found = minimal_qp_supergraph(cycle_graph(5), k_max=0, engine=eng)
        assert found is None
