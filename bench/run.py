#!/usr/bin/env python3
"""qpkit benchmark: one workload, measured in fresh single-threaded processes.

    python3 bench/run.py --workload {sweep-n7,families,classify-mixed}
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from the repository root; it needs no build step.  Every pass is a
new interpreter, because a CLI user pays the cold caches and memos on
every call.  A run repeats whole passes of the workload until ``--seconds``
are used up, and times a round of bare ``import qpkit.cli`` start-ups before
each pass.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead.  The first pass is
checked in full; every later pass must reproduce its outputs exactly.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit status is 0 when every output was right, 1 when a check failed,
and 2 when the program cannot be run at all.  The spans of the last traced
pass and a copy of the result go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
from tracing import LAYER_METRICS  # noqa: E402

WORKLOADS = ("sweep-n7", "families", "classify-mixed")
DEFAULT_SEED = 1
SETUP_ROUND = 6  # timed bare start-ups before each pass, after one untimed warm-up
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": "s"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("QPKIT_LIMIT", None)  # the default limits are part of the workloads
    return env


def spawn(args, mode: str, env: dict, deadline: float, *,
          check: bool = False, spans: Path | None = None) -> tuple[dict | None, str, float]:
    """(result, error, wall seconds) of one worker process."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), repr(t0),
           args.workload, str(args.seed), mode]
    if args.smoke:
        cmd.append("--smoke")
    if check:
        cmd.append("--check")
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, f"{mode} pass timed out", time.monotonic() - t0
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", wall
    try:
        return json.loads(lines[-1]), "", wall
    except json.JSONDecodeError:
        return None, f"{mode} pass printed no result: {lines[-1][:200]}", wall


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n items beyond it."""
    return 100 if n <= 10 else (100 * (n - 10)) // n


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    rank = max(1, math.ceil(pct * len(sorted_values) / 100))
    return sorted_values[rank - 1]


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tally(passes: list[dict]) -> tuple[int, int, list[str]]:
    """attempted, failed and failure reasons over all passes.

    The first pass that ran is checked in full.  Every item of a later
    pass must carry the same output digest as in that pass, and repeats
    its failure if it failed there.
    """
    ran = [p for p in passes if p["result"]]
    if not ran:
        return len(passes), len(passes), [p["error"] for p in passes]
    ref = ran[0]["result"]
    ref_failures = ref["failures"]
    per_pass = len(ref["digests"])
    attempted = failed = 0
    reasons: list[str] = []
    for p in passes:
        attempted += per_pass
        res = p["result"]
        if res is None:
            failed += per_pass
            reasons.append(p["error"])
            continue
        for i, (digest, ref_digest) in enumerate(zip(res["digests"], ref["digests"])):
            failure = ref_failures[i]
            if res is not ref and digest != ref_digest:
                failure = "output differs from the first pass"
            if failure:
                failed += 1
                reasons.append(f"item {i}: {failure}")
    return attempted, failed, reasons


def end_to_end(setups: list[float], plain: list[dict]) -> tuple[dict, int, int]:
    """Metrics, the tail percentile used and the item count.

    ``setup_s``, ``run_s`` and each item's latency are the best of their
    samples: other tenants of a shared machine only ever slow a
    computation down, and on a shared two-core virtual machine they did so
    by up to half, for seconds to minutes at a time.
    """
    per_item = sorted(min(values) for values in zip(*(r["latencies_ms"] for r in plain)))
    pct = tail_percentile(len(per_item))
    metrics = {
        "setup_s": min(setups),
        "run_s": min(r["run_s"] for r in plain),
        "item_p50_ms": statistics.median(per_item),
        "item_tail_ms": nearest_rank(per_item, pct),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    return metrics, pct, len(per_item)


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in LAYER_METRICS}
    metrics["trace.overhead_s"] = (min(r["run_s"] for r in traced)
                                   - min(r["run_s"] for r in plain))
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "qpkit" / "cli.py").is_file():
        print(f"bench: no qpkit sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    hard_deadline = started + RUN_LIMIT_S
    env = child_env()

    warm, error, _ = spawn(args, "setup", env, hard_deadline)  # also writes bytecode
    if warm is None:
        print(f"bench: cannot import qpkit: {error}", file=sys.stderr)
        return 2
    setups: list[float] = []

    OUT_DIR.mkdir(exist_ok=True)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    deadline = time.monotonic() + args.seconds
    passes: list[dict] = []
    while True:
        round_start = time.monotonic()
        for _ in range(SETUP_ROUND):
            res, error, _ = spawn(args, "setup", env, hard_deadline)
            if res is None:
                print(f"bench: set-up failed: {error}", file=sys.stderr)
                return 2
            setups.append(res["setup_s"])
        round_s = time.monotonic() - round_start
        kind = kinds[len(passes) % len(kinds)]
        spans = OUT_DIR / f"spans-{args.workload}.bin" if kind == "traced" else None
        first = not any(p["result"] for p in passes)
        res, error, wall = spawn(args, kind, env, hard_deadline, check=first, spans=spans)
        passes.append({"kind": kind, "result": res, "error": error, "wall": wall})
        if error:
            print(f"bench: {error}", file=sys.stderr)
        upcoming = kinds[len(passes) % len(kinds)]
        estimate = round_s + min((p["wall"] for p in passes if p["kind"] == upcoming),
                                 default=wall)
        now = time.monotonic()
        if now + estimate > hard_deadline or (
                len(passes) >= MIN_PASSES and now + estimate > deadline):
            break

    attempted, failed, reasons = tally(passes)
    plain = [p["result"] for p in passes if p["result"] and p["kind"] == "plain"]
    traced = [p["result"] for p in passes if p["result"] and p["kind"] == "traced"]
    setups += [r["setup_s"] for r in plain + traced]
    correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)

    pct, items = None, 0
    if args.trace:
        metrics = per_layer(plain, traced) if plain and traced else {}
        units = PER_LAYER
    else:
        metrics, pct, items = end_to_end(setups, plain) if plain else ({}, None, 0)
        units = END_TO_END
    for name in units:
        metrics.setdefault(name, 0.0)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": sys.version.split()[0],
        "numpy": next((r["numpy"] for r in plain + traced), "unknown"),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "passes": {kind: sum(p["kind"] == kind for p in passes) for kind in kinds},
        "pass_run_s": [round(p["result"]["run_s"], 4) if p["result"] else None
                       for p in passes],
        "setup_samples": len(setups),
        "items": items,
        "tail_percentile": pct,
        "failed_frac": failed / attempted,
    }
    if traced:
        meta["traced_spans"] = traced[-1]["spans"]
    if args.workload == "families" and plain:
        meta["cert_bytes"] = plain[0]["cert_bytes"]

    print(f"qpkit benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    print("meta " + json.dumps(meta))
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ({failed} of {attempted})")
    if "cert_bytes" in meta:
        print(f"  {'cert_bytes':<48} {meta['cert_bytes']:>14d} B")
    for reason in reasons[:10]:
        print(f"  FAILED {reason}")

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "meta": meta, "failures": reasons[:100]}, indent=1))
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
