#!/usr/bin/env python3
"""Diagnostics over the odd-cycle wing families.

For each cycle length and wing set: recognition verdict, whether the
canonical wing triangle passes the strict prime-clique predicate, and the
residue structure checks.  The triangle's residue is always a block graph,
but the triangle itself usually fails the membership clause of the strict
predicate (its cycle vertices avoid every maximum independent set), so the
table makes the gap visible instead of hiding it.

Exits 1 when any PK residue is not a block graph or any PI residue is
not a forest, and 2 on a cycle length that is even or below 5.
"""

import argparse
import itertools
import sys

from qpkit.families import (
    FamilySpec,
    family_prime_clique,
    family_prime_independent_set,
    odd_cycle_family,
)
from qpkit.graphs import induced_subgraph
from qpkit.invariants import is_block_graph, is_forest
from qpkit.recognition import (
    RecognitionEngine,
    is_prime_clique,
    verify_certificate,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cycles", type=int, nargs="+", default=[5, 7])
    args = ap.parse_args()
    bad = [n for n in args.cycles if n < 5 or n % 2 == 0]
    if bad:
        ap.error(f"cycle lengths must be odd and at least 5, got {bad}")

    # the largest graph of cycle length n has 2n vertices
    engine = RecognitionEngine(limit=2 * max(args.cycles))
    print(f"{'spec':<24} {'qp':<4} {'cert':<5} {'PK-strict':<10} "
          f"{'PK-residue':<11} {'PI-residue':<10}")
    rows = 0
    strict_passes = 0
    residue_failures = 0
    for n in args.cycles:
        for o in range(1, n + 1):
            for pos in itertools.combinations(range(1, n + 1), o):
                fg = odd_cycle_family(FamilySpec(n, pos))
                g = fg.graph
                out = engine.recognize(g)
                cert_ok = bool(out.quasiperfect and verify_certificate(
                    g, out.certificate))
                pk = family_prime_clique(fg)
                pi = family_prime_independent_set(fg)
                strict = is_prime_clique(g, pk)
                strict_passes += strict
                block = is_block_graph(
                    induced_subgraph(g, g.vertex_mask & ~pk))
                forest = is_forest(induced_subgraph(g, g.vertex_mask & ~pi))
                residue_failures += not (block and forest)
                label = f"F({n},{{{','.join(map(str, pos))}}})"
                print(f"{label:<24} {str(out.quasiperfect):<4} "
                      f"{str(cert_ok):<5} {str(strict):<10} "
                      f"{str(block):<11} {str(forest):<10}")
                rows += 1
    print(f"\n{rows} family graphs; wing triangle passes the strict "
          f"prime-clique predicate on {strict_passes} of them")
    if residue_failures:
        print(f"{residue_failures} specs fail a residue check", file=sys.stderr)
    return 1 if residue_failures else 0


if __name__ == "__main__":
    sys.exit(main())
