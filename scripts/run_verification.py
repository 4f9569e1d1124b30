#!/usr/bin/env python3
"""Run every verification suite and survey, write reports, print a summary.

Usage: run_verification.py [--n-max N] [--threads T] [--out-dir DIR]

N is 0..8 (the built-in enumeration limit) and T is at least 1.
"""

import argparse
import json
import sys
from pathlib import Path

from qpkit.harness import ALL_SUITES, ENUMERATION_LIMIT


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out-dir", default="reports")
    args = ap.parse_args()
    if not 0 <= args.n_max <= ENUMERATION_LIMIT:
        ap.error(f"--n-max must be in 0..{ENUMERATION_LIMIT}, got {args.n_max}")
    if args.threads < 1:
        ap.error(f"--threads must be at least 1, got {args.threads}")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failed = False
    for name, fn in ALL_SUITES.items():
        report = fn(args.n_max, threads=args.threads)
        path = out_dir / f"{name}.json"
        path.write_text(report.to_json())
        status = "ok" if report.passed else "VIOLATIONS"
        extra = ""
        if report.findings:
            interesting = {k: v for k, v in report.findings.items()
                           if isinstance(v, (int, bool))}
            extra = "  " + json.dumps(interesting)
        print(f"{name:<20} n<={args.n_max}  scanned={report.graphs_scanned:<5} "
              f"{status}{extra}")
        if not report.passed:
            failed = True
    print(f"reports written to {out_dir}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
