"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q

The smoke runs start real worker processes on tiny inputs (``--smoke``);
the other tests call the workloads and the tally in this process.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_code():
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    human = "\n".join(lines[:-1])
    assert "failed_frac" in human
    if workload == "families":
        assert "cert_bytes" in human
    meta = json.loads(next(ln for ln in lines if ln.startswith("meta "))[5:])
    for key in ("seed", "python", "numpy", "nproc", "git_revision", "tail_percentile"):
        assert key in meta


def _flip_verdict(workload: str, outs):
    if workload == "sweep-n7":
        code, payload = outs
        doc = json.loads(payload)
        doc["reports"][1]["violations"] = ["D?{"]
        return code, json.dumps(doc)
    outs = list(outs)
    if workload == "families":
        g, outcome, verified, text = outs[0]
        outs[0] = (g, dataclasses.replace(outcome, quasiperfect=False), verified, text)
    else:
        outcome, record, line = outs[0]
        outs[0] = (outcome, dataclasses.replace(record, quasiperfect=not record.quasiperfect),
                   line)
    return outs


@pytest.mark.parametrize("workload", NAMES)
def test_injected_wrong_verdict_raises_failed_frac(workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.inputs(SEED, True)
    outs, _ = wl.run(inputs, lambda i: None)

    def failed_frac(outputs) -> float:
        one_pass = {"kind": "plain", "error": "", "result": {
            "digests": wl.digests(outputs), "failures": wl.check(inputs, outputs)}}
        attempted, failed, _ = run.tally([one_pass])
        return failed / attempted

    assert failed_frac(outs) == 0
    assert failed_frac(_flip_verdict(workload, outs)) == 1 / len(wl.digests(outs))


def test_later_pass_must_repeat_the_first():
    first = {"digests": ["a", "b"], "failures": [None, "wrong"]}
    passes = [{"result": first, "error": ""},
              {"result": {"digests": ["a", "c"], "failures": None}, "error": ""},
              {"result": {"digests": ["x", "b"], "failures": None}, "error": ""},
              {"result": None, "error": "pass timed out"}]
    attempted, failed, _ = run.tally(passes)
    assert (attempted, failed) == (8, 1 + 1 + 2 + 2)


@pytest.mark.parametrize("n", [1, 10, 11, 94, 669])
def test_tail_percentile_leaves_ten_items_beyond(n):
    pct = run.tail_percentile(n)
    beyond = n - math.ceil(pct * n / 100)
    if n <= 10:
        assert pct == 100
    else:
        assert beyond >= 10 and n - math.ceil((pct + 1) * n / 100) < 10


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "families", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
