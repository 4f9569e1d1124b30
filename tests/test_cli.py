"""Command line behavior: formats, exit codes, determinism."""

import functools
import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qpkit import canonical, cli, harness, invariants, recognition
from qpkit.cli import main
from qpkit.graphs import cycle_graph, emit_graph6, empty_graph
from qpkit.harness import ALL_SUITES, SuiteReport
from qpkit.recognition import certificate_from_json, verify_certificate

C5 = emit_graph6(cycle_graph(5))  # Dhc


def run(argv, stdin="", monkeypatch=None, capsys=None):
    """Drive main() in-process; returns (exit_code, stdout)."""
    if stdin is not None and monkeypatch is not None:
        import io
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    out = capsys.readouterr().out if capsys else ""
    return code, out


class TestClassify:
    def test_c5(self, monkeypatch, capsys):
        code, out = run(["classify", "-"], C5, monkeypatch, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["quasiperfect"] is False
        assert doc["omega"] == 2 and doc["chi"] == 3
        # the record's members in the order of its fields
        assert out == ('{"graph6": "Dhc", "key": "DLo", "n": 5, "m": 5, "omega": 2, '
                       '"alpha": 2, "chi": 3, "perfect": false, "quasiperfect": false, '
                       '"cert_ref": null}\n')

    def test_k0(self, monkeypatch, capsys):
        code, out = run(["classify", "-"], "?", monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["quasiperfect"] is True

    def test_multiple_lines(self, monkeypatch, capsys):
        code, out = run(["classify", "-"], "?\nA_\n", monkeypatch, capsys)
        assert code == 0
        docs = [json.loads(ln) for ln in out.splitlines()]
        assert len(docs) == 2

    def test_file_input_and_output(self, tmp_path, capsys):
        src = tmp_path / "g.g6"
        src.write_text(C5 + "\n")
        dst = tmp_path / "out.jsonl"
        code = main(["classify", str(src), "--out", str(dst)])
        assert code == 0
        assert json.loads(dst.read_text())["n"] == 5

    def test_cert_out(self, tmp_path, monkeypatch, capsys):
        cert = tmp_path / "cert.json"
        code, out = run(
            ["classify", "-", "--cert-out", str(cert)],
            "Ehf?", monkeypatch, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["quasiperfect"] is True
        assert doc["cert_ref"] == str(cert)
        g, c = certificate_from_json(cert.read_text())
        assert verify_certificate(g, c)

    def test_edgelist_format(self, monkeypatch, capsys):
        code, out = run(["classify", "-", "--format", "edgelist"],
                        "3 2\n0 1\n1 2\n", monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["n"] == 3

    def test_parse_error_exits_2(self, monkeypatch, capsys):
        code, _ = run(["classify", "-"], "notgraph6!!", monkeypatch, capsys)
        assert code == 2

    def test_limit_exits_3(self, monkeypatch, capsys):
        monkeypatch.setenv("QPKIT_LIMIT", "3")
        code, _ = run(["classify", "-"], C5, monkeypatch, capsys)
        assert code == 3

    def test_limit_exits_3_before_any_invariant(self, monkeypatch, capsys):
        monkeypatch.setenv("QPKIT_LIMIT", "3")
        monkeypatch.setattr(harness, "chromatic_number", None)  # fails if called
        code, _ = run(["classify", "-"], C5, monkeypatch, capsys)
        assert code == 3

    def test_no_certificate_without_cert_out(self, monkeypatch, capsys):
        monkeypatch.setattr(recognition.RecognitionEngine, "_materialize", None)  # fails if called
        code, out = run(["classify", "-"], "Ehf?\nEhf?\n", monkeypatch, capsys)
        assert code == 0 and all(json.loads(ln)["quasiperfect"] for ln in out.splitlines())

    def test_limit_env_raises_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("QPKIT_LIMIT", "soon")
        code, _ = run(["classify", "-"], C5, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "QPKIT_LIMIT must be an integer" in captured.err

    def test_negative_limit_env_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("QPKIT_LIMIT", "-1")
        code, _ = run(["classify", "-"], C5, monkeypatch)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "QPKIT_LIMIT must be at least 0" in captured.err

    def test_cert_out_independent_of_input_order(self, tmp_path, monkeypatch, capsys):
        # DEk classified after CU gets the certificate it gets alone
        pair, alone = tmp_path / "pair.json", tmp_path / "alone.json"
        run(["classify", "-", "--cert-out", str(pair)], "CU\nDEk\n", monkeypatch, capsys)
        run(["classify", "-", "--cert-out", str(alone)], "DEk\n", monkeypatch, capsys)
        assert (tmp_path / "pair-1.json").read_text() == alone.read_text()

    def test_deterministic(self, monkeypatch, capsys):
        _, out1 = run(["classify", "-"], C5, monkeypatch, capsys)
        _, out2 = run(["classify", "-"], C5, monkeypatch, capsys)
        assert out1 == out2


class TestConstruct:
    def test_family(self, capsys):
        code = main(["construct", "family", "n=5", "k=1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert out[0] == "Ehf?"
        assert out[1].startswith("PK ")
        assert out[2].startswith("PI ")

    def test_family_multi_wing(self, capsys):
        code = main(["construct", "family", "n=7", "k={1,3,5}"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        from qpkit.graphs import parse_graph6
        assert parse_graph6(out[0]).n == 10

    def test_blowup(self, capsys):
        code = main(["construct", "c5blowup", "t=3"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        from qpkit.graphs import parse_graph6
        assert parse_graph6(out).n == 16

    @pytest.mark.parametrize("spec", [
        ["family", "n=4", "k=1"],
        ["family", "n=5"],
        ["family", "n=5", "k=1", "zz=1"],
        ["c5blowup", "t=0"],
        ["c5blowup"],
        ["nosuch", "x=1"],
        ["family", "n=65", "k=1"],  # 66 vertices, past MAX_VERTICES
        ["family", "n=63", "k={1,2}"],  # 65 vertices
    ])
    def test_bad_specs_exit_2(self, spec, capsys):
        assert main(["construct", *spec]) == 2
        capsys.readouterr()


class TestVerify:
    def test_theorem1(self, capsys):
        code = main(["verify", "theorem1", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "theorem1"
        assert doc["violations"] == []

    def test_all(self, capsys):
        code = main(["verify", "all", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert {r["suite"] for r in doc["reports"]} == {
            "theorem1", "theorem2", "perfect-subset"}

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_surveys_are_not_suites(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "color-removal"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_all_exits_2_on_any_violation(self, monkeypatch, capsys):
        def failing(n_max, *, threads):
            return SuiteReport("theorem2", n_max, 1, ["?"], {"threads": threads})

        monkeypatch.setitem(cli.SUITES, "theorem2", failing)
        assert main(["verify", "all", "--n-max", "3"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [r["violations"] for r in doc["reports"]] == [[], ["?"], []]

    def test_out_file(self, tmp_path):
        dst = tmp_path / "report.json"
        code = main(["verify", "theorem2", "--n-max", "3", "--out", str(dst)])
        assert code == 0
        assert json.loads(dst.read_text())["suite"] == "theorem2"

    def test_threads_same_payload(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["verify", "theorem1", "--n-max", "4", "--out", str(a)])
        main(["verify", "theorem1", "--n-max", "4", "--threads", "2",
              "--out", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("stats"), db.pop("stats")
        da["config"].pop("threads"), db["config"].pop("threads")
        assert da == db


class TestNMax:
    @pytest.mark.parametrize("argv", [["verify", "theorem1", "--n-max", "-1"],
                                      ["verify", "all", "--n-max", "9"],
                                      ["survey", "reading-divergence", "--n-max", "-3"],
                                      ["survey", "color-removal", "--n-max", "-1"]])
    def test_out_of_range_exits_2(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_max must be in 0..8" in captured.err


class TestThreads:
    @pytest.mark.parametrize("argv", [["verify", "theorem1"],
                                      ["survey", "reading-divergence"]])
    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_below_one_exits_2(self, capsys, argv, threads):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n-max", "2", "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestSurvey:
    def test_color_removal(self, capsys):
        code = main(["survey", "color-removal", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["findings"]["counterexamples"] == []

    def test_all_colorings_is_rejected(self, capsys):
        # color-removal sweeps every optimal colour class without the flag
        for survey in ("color-removal", "reading-divergence"):
            with pytest.raises(SystemExit) as exc:
                main(["survey", survey, "--all-colorings", "--n-max", "2"])
            assert exc.value.code == 2
            assert "--all-colorings" in capsys.readouterr().err

    def test_divergence(self, capsys):
        code = main(["survey", "reading-divergence", "--n-max", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["findings"]["count"] == 0


class TestSupergraph:
    def test_c5(self, monkeypatch, capsys):
        code, out = run(["supergraph", "-"], C5, monkeypatch, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True and doc["added"] == 1

    def test_multiple_inputs_rejected(self, monkeypatch, capsys):
        code, _ = run(["supergraph", "-"], "?\n?\n", monkeypatch, capsys)
        assert code == 2

    def test_negative_k_max_exits_2(self, monkeypatch, capsys):
        g6 = emit_graph6(empty_graph(14))  # over the default limit of 12
        code, _ = run(["supergraph", "-", "--k-max", "-1"], g6, monkeypatch, capsys)
        assert code == 2


class TestScripts:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"

    @pytest.mark.parametrize("argv", [["--threads", "0"], ["--threads", "-2"],
                                      ["--n-max", "9"], ["--n-max", "-1"]])
    def test_run_verification_rejects_out_of_range(self, monkeypatch, capsys,
                                                   tmp_path, argv):
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *argv,
                                          "--out-dir", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_verification_small(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), "--n-max", "3",
                                          "--out-dir", str(tmp_path)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exc.value.code == 0
        assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(ALL_SUITES)
        capsys.readouterr()


class TestMemoUsage:
    SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "memo_usage.py"

    def run(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *argv])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        return exc.value.code, capsys.readouterr()

    def test_reports_every_memo(self, monkeypatch, capsys):
        code, out = self.run(monkeypatch, capsys, ["verify", "theorem2", "--n-max", "3"])
        assert code == 0
        assert json.loads(out.out)["graphs_scanned"] == 8
        for name in ("canonical.canonical_form", "canonical.key_graph",
                     "invariants._maximum_cliques"):
            assert f"qpkit.{name}: CacheInfo(" in out.err
        assert "qpkit.recognition." not in out.err  # certificate facts live in stores
        assert "qpkit.canonical._known_codes: set(maxsize=65536, currsize=" in out.err
        assert "qpkit.canonical._enumerated: dict(maxsize=65536, currsize=" in out.err
        assert "peak RSS: " in out.err

    def test_a_full_memo_fails(self, monkeypatch, capsys):
        tiny = functools.lru_cache(maxsize=1)(invariants._maximum_cliques.__wrapped__)
        tiny(empty_graph(1))
        monkeypatch.setattr(invariants, "_maximum_cliques", tiny)
        code, out = self.run(monkeypatch, capsys, ["verify", "theorem2", "--n-max", "2"])
        assert code == 1
        assert "memos at maxsize: qpkit.invariants._maximum_cliques" in out.err

    def test_a_full_known_code_set_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(canonical, "_KNOWN_CODES_MAX", 1)
        code, out = self.run(monkeypatch, capsys, ["verify", "theorem2", "--n-max", "3"])
        assert code == 1
        assert "memos at maxsize: qpkit.canonical._known_codes" in out.err

    def test_a_full_enumerated_table_fails(self, monkeypatch, capsys):
        harness.enumerate_graphs(3)  # the levels the sweep reads, grown and registered
        monkeypatch.setattr(canonical, "_ENUMERATED_MAX", len(canonical._enumerated))
        code, out = self.run(monkeypatch, capsys, ["verify", "theorem2", "--n-max", "3"])
        assert code == 1
        assert "memos at maxsize: qpkit.canonical._enumerated" in out.err


class TestConsoleScript:
    def test_entry_point(self):
        proc = subprocess.run(
            ["qpkit", "classify", "-"], input=C5, text=True,
            capture_output=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["quasiperfect"] is False

    def test_byte_identical_runs(self):
        runs = [subprocess.run(
            ["qpkit", "verify", "perfect-subset", "--n-max", "4"],
            capture_output=True).stdout for _ in range(2)]
        # the stats block carries timing; strip it before comparing
        docs = [json.loads(r) for r in runs]
        for d in docs:
            d.pop("stats")
        assert docs[0] == docs[1]


class TestImports:
    def test_no_runtime_dependency(self):
        # only what `import qpkit.cli` itself loads: site start-up may load
        # third-party modules of its own before any user code runs
        probe = ("import json, sys; before = set(sys.modules); import qpkit.cli; "
                 "print(json.dumps(sorted(set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True)
        loaded = json.loads(proc.stdout)
        assert "qpkit.cli" in loaded
        foreign = [name for name in loaded
                   if name.partition(".")[0] not in sys.stdlib_module_names | {"qpkit"}]
        assert foreign == []

    def test_start_up_imports_no_process_pool(self):
        # multiprocessing is imported only when a sweep opens a pool
        probe = "import sys, qpkit.cli; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True)
        assert proc.stdout == "False\n"
