#!/usr/bin/env python3
"""Regenerate bench/expected/families.json and classify.json.

    python3 bench/make_expected.py

Runs the families and classify-mixed workloads once and stores each
item's verdict and invariants by label.  They hold for every seed, which
only orders the families.  Before anything is
written, every value is checked against something other than the code
that produced it: the brute-force invariants of reference.py, the facts
that perfect graphs are quasiperfect and that quasiperfect graphs have
equal clique and chromatic numbers, a pure-mode recognition, and, for the
wing families, the paper's theorem that every F(n, K) is quasiperfect.
sweep.json holds the graph counts of OEIS A000088 and is kept by hand.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import workloads  # noqa: E402
from qpkit import graphs, invariants, recognition  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402


def families() -> dict:
    items = workloads.families_inputs(DEFAULT_SEED, smoke=False)
    outs, _ = workloads.families_run(items, lambda i: None)
    expected = {}
    for (label, spec), (g, outcome, verified, _) in zip(items, outs):
        if not (outcome.quasiperfect and verified):
            sys.exit(f"{label}: the theorem says quasiperfect, got {outcome.quasiperfect}")
        if (g.n, g.m) != (spec.n + spec.o, spec.n + 2 * spec.o):
            sys.exit(f"{label}: wrong size {g.n}, {g.m}")
        expected[label] = {"n": g.n, "m": g.m, "quasiperfect": True}
    return expected


def reference_record(g: graphs.Graph, pure: recognition.RecognitionEngine) -> dict:
    adj = list(g.adj)
    omega = reference.clique_number(adj)
    chi = reference.chromatic_number(adj)
    perfect = (reference.is_perfect(adj)
               if g.n <= invariants.DEFAULT_PERFECTION_LIMIT else None)
    if perfect:
        quasi = True  # perfect graphs are quasiperfect
    elif omega != chi:
        quasi = False  # accepted graphs have equal clique and chromatic numbers
    else:
        quasi = pure.is_quasiperfect(g)  # the definition alone, no shortcut
    return {"n": g.n, "m": g.m, "omega": omega,
            "alpha": reference.clique_number(reference.complement(adj)),
            "chi": chi, "perfect": perfect, "quasiperfect": quasi}


def classify() -> dict:
    items = workloads.classify_inputs(DEFAULT_SEED, smoke=False)
    outs, _ = workloads.classify_run(items, lambda i: None)
    pure = recognition.RecognitionEngine(mode="pure")
    doc = {}
    for (label, g), item in zip(items, outs):
        record = {f: getattr(item[1], f) for f in workloads.RECORD_CHECKED}
        want = reference_record(g, pure)
        if record != want:
            sys.exit(f"{label}: qpkit says {record}, reference says {want}")
        doc[label] = record
    return doc


def main() -> int:
    out = BENCH / "expected"
    for name, doc in (("families.json", families()), ("classify.json", classify())):
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(doc.items())]
        (out / name).write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
