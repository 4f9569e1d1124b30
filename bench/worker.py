"""One benchmark pass in a fresh interpreter; bench/run.py starts it.

    python3 bench/worker.py SPAWN_TIME WORKLOAD SEED MODE [--smoke] [--check]
                            [--spans PATH]

SPAWN_TIME is ``time.monotonic()`` in the parent just before it started
this process; CLOCK_MONOTONIC is system-wide, so set-up time is measured
from process creation until ``import qpkit.cli`` is done.  MODE is
``setup`` (import only), ``plain`` or ``traced``.  The result is one JSON
object on standard output.  An exception that escapes the workload ends
the process with a traceback, and the parent fails every item of the pass.
"""

import sys
import time


def main(argv: list[str]) -> int:
    spawn_time = float(argv[0])
    import qpkit.cli  # noqa: F401  set-up ends when the CLI is importable
    setup_s = time.monotonic() - spawn_time

    import argparse
    import json
    import resource
    from pathlib import Path

    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("setup", "plain", "traced"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="check every output, not only report digests")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv[1:])
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.smoke)
    tracer = tracing.Tracer() if args.mode == "traced" else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    outputs, seconds = wl.run(inputs, tracer.mark if tracer else lambda i: None)
    run_s = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    result.update(
        run_s=run_s,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        numpy=numpy.__version__,
        latencies_ms=[s * 1000 for s in seconds],
        digests=wl.digests(outputs),
        failures=wl.check(inputs, outputs) if args.check else None,
    )
    if args.workload == "families":
        result["cert_bytes"] = workloads.cert_bytes(outputs)
    if tracer:
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
