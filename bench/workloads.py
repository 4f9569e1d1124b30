"""The benchmark's workloads: seeded inputs, one timed pass, and its checks.

Each workload offers

* ``inputs(seed, smoke)``: the generated inputs, built before timing;
* ``run(inputs, mark)``: the timed pass, returning the outputs and the
  wall time of each timed item in seconds; ``mark(i)`` is called before
  item i so that traced spans carry the item as their run id;
* ``check(inputs, outputs)``: one failure reason per checked item,
  None where the item is right; it runs outside the timed region;
* ``digests(outputs)``: one digest per checked item, so that later passes
  of a run are compared with the fully checked first one.

Calls into qpkit go through module attributes (``recognition.recognize``,
not a name imported from it) so that the traced run's wrappers see them.
Checks never compare canonical key strings or certificate bytes, because
planned changes to labeling and certificates alter both; they compare
verdicts and invariants, and re-verify every certificate instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from qpkit import canonical, cli, families, graphs, harness, invariants, recognition
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def _expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / name).read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _failure(item) -> str | None:
    if isinstance(item, Exception):
        return f"raised {type(item).__name__}: {item}"
    return None


# ---------------------------------------------------------------------------
# sweep-n7: `qpkit verify all --n-max 7`

SWEEP_SUITES = ("theorem1", "theorem2", "perfect-subset")


def sweep_inputs(seed: int, smoke: bool) -> int:
    """The n_max to sweep; the sweep enumerates its own graphs, so the seed
    changes nothing."""
    return 5 if smoke else 7


def sweep_run(n_max: int, mark: Callable[[int], None]):
    mark(0)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "all", "--n-max", str(n_max)])
    return (code, buf.getvalue()), [time.perf_counter() - t0]


def _sweep_reports(outputs) -> dict:
    _, payload = outputs
    return {r["suite"]: r for r in json.loads(payload)["reports"]}


def sweep_check(n_max: int, outputs) -> list[str | None]:
    code, _ = outputs
    want = _expected("sweep.json")["graphs_scanned"][str(n_max)]
    try:
        reports = _sweep_reports(outputs)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"] * len(SWEEP_SUITES)
    out: list[str | None] = []
    for suite in SWEEP_SUITES:
        r = reports.get(suite)
        if code != 0:
            out.append(f"exit code {code}")
        elif r is None:
            out.append(f"{suite}: no report")
        elif r["n_max"] != n_max or r["graphs_scanned"] != want:
            out.append(f"{suite}: scanned {r['graphs_scanned']} graphs at "
                       f"n_max {r['n_max']}, want {want} at {n_max}")
        elif r["violations"]:
            out.append(f"{suite}: violations {r['violations'][:3]}")
        else:
            out.append(None)
    return out


def sweep_digests(outputs) -> list[str]:
    code, _ = outputs
    try:
        reports = _sweep_reports(outputs)
    except (ValueError, KeyError, TypeError):
        reports = {}
    return [_digest(json.dumps(
        [code, {k: v for k, v in reports.get(s, {}).items() if k != "stats"}],
        sort_keys=True)) for s in SWEEP_SUITES]


# ---------------------------------------------------------------------------
# families: build, recognize, verify and serialize every odd-cycle wing graph

FAMILY_CYCLES = (5, 7, 9)
FAMILY_LIMIT = 18  # F(9, all wings) has 18 vertices


def family_label(n: int, positions: tuple[int, ...]) -> str:
    return f"F({n},{{{','.join(map(str, positions))}}})"


def families_inputs(seed: int, smoke: bool) -> list[tuple]:
    """(label, spec) per wing spec, in an order drawn from the seed.

    The graphs are built as qpkit builds them, unrelabeled: residues of
    related specs coincide as labeled graphs, which is what makes the
    labeling cache pay off on this workload.
    """
    items = [(family_label(n, pos), families.FamilySpec(n, pos))
             for n in (FAMILY_CYCLES[:1] if smoke else FAMILY_CYCLES)
             for o in range(1, n + 1)
             for pos in combinations(range(1, n + 1), o)]
    random.Random(seed).shuffle(items)
    return items


def families_run(items: list[tuple], mark: Callable[[int], None]):
    engine = recognition.RecognitionEngine(mode="accelerated", limit=FAMILY_LIMIT)
    outs: list = []
    seconds: list[float] = []
    for i, (_, spec) in enumerate(items):
        mark(i)
        t0 = time.perf_counter()
        try:
            g = families.odd_cycle_family(spec).graph
            outcome = engine.recognize(g)
            verified, text = False, None
            if outcome.certificate is not None:
                verified = bool(recognition.verify_certificate(g, outcome.certificate))
                text = recognition.certificate_to_json(g, outcome.certificate)
            outs.append((g, outcome, verified, text))
        except Exception as exc:  # reported per item by the check
            outs.append(exc)
        seconds.append(time.perf_counter() - t0)
    return outs, seconds


def _family_failure(item, exp: dict) -> str | None:
    g, outcome, verified, text = item
    if (g.n, g.m) != (exp["n"], exp["m"]):
        return f"n, m = {g.n}, {g.m}, want {exp['n']}, {exp['m']}"
    if outcome.quasiperfect != exp["quasiperfect"]:
        return f"quasiperfect {outcome.quasiperfect}, want {exp['quasiperfect']}"
    if (outcome.certificate is None) == outcome.quasiperfect:
        return "certificate present exactly when not quasiperfect"
    if not outcome.quasiperfect:
        return None
    if not verified:
        return "verify_certificate rejected the certificate in the run"
    if not recognition.verify_certificate(g, outcome.certificate):
        return "certificate fails re-verification"
    parsed_g, parsed = recognition.certificate_from_json(text)
    if parsed_g != g:
        return "certificate JSON describes another graph"
    if not recognition.verify_certificate(parsed_g, parsed):
        return "certificate read back from JSON fails verification"
    return None


def families_check(items: list[tuple], outs: list) -> list[str | None]:
    expected = _expected("families.json")
    return [_failure(item) or _family_failure(item, expected[label])
            for (label, _), item in zip(items, outs)]


def families_digests(outs: list) -> list[str]:
    return [_digest(repr(item) if isinstance(item, Exception)
                    else f"{item[1].quasiperfect}|{item[3]}") for item in outs]


def cert_bytes(outs: list) -> int:
    """Bytes of certificate JSON a families pass produced."""
    return sum(len(item[3]) for item in outs
               if not isinstance(item, Exception) and item[3] is not None)


# ---------------------------------------------------------------------------
# classify-mixed: the `qpkit classify` path over seeded random and symmetric graphs

RANDOM_SIZES = (9, 10, 11, 12)
RANDOM_DENSITIES = (0.2, 0.5, 0.8)
RANDOM_PER_CELL = 4
CORPUS_SEED = 1
SMOKE_NAMES = {"rand-n9-d0.2-0", "rand-n9-d0.5-0", "rand-n9-d0.8-0",
               "2K2", "co-2K2", "3K3", "co-3K3", "Q3", "co-Q3", "C5[2]", "co-C5[2]"}

Edges = tuple[int, list[tuple[int, int]]]


def _clique(t: int) -> Edges:
    return t, list(combinations(range(t), 2))


def _cycle(t: int) -> Edges:
    return t, [(i, (i + 1) % t) for i in range(t)]


def _disjoint(k: int, base: Edges) -> Edges:
    n, edges = base
    return k * n, [(u + i * n, v + i * n) for i in range(k) for u, v in edges]


def _blowup(base: Edges, t: int) -> Edges:
    """C_n[t]: each vertex becomes a clique of t copies, edges join all copies."""
    n, edges = base
    out = [(v * t + a, v * t + b) for v in range(n) for a, b in combinations(range(t), 2)]
    out += [(u * t + a, v * t + b) for u, v in edges for a in range(t) for b in range(t)]
    return n * t, out


def _rook(a: int, b: int) -> Edges:
    """K_a x K_b: cells of an a-by-b board, adjacent when they share a line."""
    cells = [(i, j) for i in range(a) for j in range(b)]
    return a * b, [(x, y) for x, y in combinations(range(a * b), 2)
                   if cells[x][0] == cells[y][0] or cells[x][1] == cells[y][1]]


def _cube() -> Edges:
    return 8, [(u, u ^ 1 << k) for u in range(8) for k in range(3) if u < u ^ 1 << k]


def _complement(base: Edges) -> Edges:
    n, edges = base
    present = {tuple(sorted(e)) for e in edges}
    return n, [e for e in combinations(range(n), 2) if e not in present]


# All at most 12 vertices.  K6,6 (about 25 s) and 5K3 (past the default
# recognition limit) are left out; see NOTES.md.
SYMMETRIC: list[tuple[str, Edges]] = (
    [(f"{k}K2", _disjoint(k, _clique(2))) for k in range(2, 7)]
    + [(f"{k}K3", _disjoint(k, _clique(3))) for k in range(2, 5)]
    + [(f"{k}K4", _disjoint(k, _clique(4))) for k in range(2, 4)]
    + [("2K5", _disjoint(2, _clique(5)))]
    + [(f"{k}C4", _disjoint(k, _cycle(4))) for k in range(2, 4)]
    + [(f"C{c}[{t}]", _blowup(_cycle(c), t)) for c, t in ((4, 2), (4, 3), (5, 2), (6, 2))]
    + [(f"K{a}xK{b}", _rook(a, b)) for a, b in ((2, 4), (2, 5), (2, 6), (3, 3), (3, 4))]
    + [("Q3", _cube())]
)


def classify_inputs(seed: int, smoke: bool) -> list[tuple[str, graphs.Graph]]:
    """Random graphs, and each symmetric graph and its complement.

    The random graphs are drawn from CORPUS_SEED, each with exactly
    round(d * n(n-1)/2) edges.  The symmetric graphs keep their
    constructed labels, which is how a user builds them.  The order is
    fixed too, also drawn from CORPUS_SEED, and mixes the two kinds.

    So the run's seed changes nothing here.  One engine serves all items,
    and an item's cost depends on its labels and on what earlier items
    left in the memo: relabeling the random graphs, or reordering them,
    changed the work of single items by up to 3.5 times, and
    item_p50_ms, which sits where the latencies are sparse, moved with
    it.  Listed kind by kind, the items near the median all ran within
    the same few seconds, so one slow stretch of a shared machine moved
    item_p50_ms as a whole; hence the mixed order.
    """
    draw = random.Random(CORPUS_SEED)
    corpus: list[tuple[str, Edges]] = []
    for n in RANDOM_SIZES:
        pairs = list(combinations(range(n), 2))
        for d in RANDOM_DENSITIES:
            for rep in range(RANDOM_PER_CELL):
                corpus.append((f"rand-n{n}-d{d}-{rep}",
                               (n, draw.sample(pairs, round(d * len(pairs))))))
    for name, base in SYMMETRIC:
        corpus += [(name, base), (f"co-{name}", _complement(base))]
    draw.shuffle(corpus)
    return [(label, graphs.from_edges(n, edges)) for label, (n, edges) in corpus
            if not smoke or label in SMOKE_NAMES]


def classify_run(items: list[tuple[str, graphs.Graph]], mark: Callable[[int], None]):
    """As `qpkit classify` without --cert-out: one engine and one checker."""
    engine = recognition.RecognitionEngine(
        mode="accelerated", limit=recognition.DEFAULT_RECOGNITION_LIMIT)
    checker = invariants.PerfectionChecker()
    outs: list = []
    seconds: list[float] = []
    for i, (_, g) in enumerate(items):
        mark(i)
        t0 = time.perf_counter()
        try:
            outcome = engine.recognize(g)
            record = harness.build_classification_record(g, engine=engine, checker=checker)
            outs.append((outcome, record, json.dumps(record.to_dict())))
        except Exception as exc:  # reported per item by the check
            outs.append(exc)
        seconds.append(time.perf_counter() - t0)
    return outs, seconds


RECORD_CHECKED = ("n", "m", "omega", "alpha", "chi", "perfect", "quasiperfect")


def _record_failure(g: graphs.Graph, item, want: dict) -> str | None:
    outcome, record, _ = item
    got = {f: getattr(record, f) for f in RECORD_CHECKED}
    if got != want:
        return f"record {got}, want {want}"
    if graphs.parse_graph6(record.graph6) != g:
        return "record graph6 does not decode to the input"
    rep = graphs.parse_graph6(record.key)
    if (rep.n, rep.m) != (g.n, g.m):
        return "canonical key decodes to a graph of another size"
    if canonical.canonical_key(rep).decode("ascii") != record.key:
        return "canonical key is not a fixed point"
    if outcome.quasiperfect != record.quasiperfect:
        return "recognize and the record disagree"
    if (outcome.certificate is None) == outcome.quasiperfect:
        return "certificate present exactly when not quasiperfect"
    if outcome.quasiperfect and not recognition.verify_certificate(g, outcome.certificate):
        return "certificate fails re-verification"
    return None


def classify_check(items: list[tuple[str, graphs.Graph]], outs: list) -> list[str | None]:
    expected = _expected("classify.json")
    return [_failure(item) or _record_failure(g, item, expected[label])
            for (label, g), item in zip(items, outs)]


def classify_digests(outs: list) -> list[str]:
    return [_digest(repr(item) if isinstance(item, Exception)
                    else f"{item[2]}|{item[0].quasiperfect}") for item in outs]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable
    digests: Callable


WORKLOADS = {
    "sweep-n7": Workload(sweep_inputs, sweep_run, sweep_check, sweep_digests),
    "families": Workload(families_inputs, families_run, families_check, families_digests),
    "classify-mixed": Workload(classify_inputs, classify_run, classify_check, classify_digests),
}
