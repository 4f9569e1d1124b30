"""Command line front end.

Exit codes: 0 success (including surveys with findings), 2 for parse or
specification problems, 3 when a configured limit is exceeded.  A
classification verdict never changes the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .families import FamilyGraph, FamilySpec, c5_blowup_with_apex, family_prime_clique, \
    family_prime_independent_set, odd_cycle_family
from .graphs import Graph, GraphFormatError, bit_members, emit_graph6, \
    parse_edge_list, parse_graph6
from .harness import (
    REPORT_SCHEMA,
    SUITES,
    SURVEYS,
    build_classification_record,
    minimal_qp_supergraph,
)
from .invariants import PerfectionLimitError
from .recognition import (
    DEFAULT_RECOGNITION_LIMIT,
    MemoCapacityError,
    RecognitionEngine,
    RecognitionLimitError,
    certificate_to_json,
)

LIMIT_ENV = "QPKIT_LIMIT"

_LIMIT_ERRORS = (RecognitionLimitError, PerfectionLimitError, MemoCapacityError)


def _recognition_limit() -> int:
    raw = os.environ.get(LIMIT_ENV)
    if raw is None:
        return DEFAULT_RECOGNITION_LIMIT
    try:
        limit = int(raw)
    except ValueError as exc:
        raise ValueError(f"{LIMIT_ENV} must be an integer, got {raw!r}") from exc
    if limit < 0:
        raise ValueError(f"{LIMIT_ENV} must be at least 0, got {limit}")
    return limit


def _thread_count(raw: str) -> int:
    """The --threads value: a number of worker processes, at least 1."""
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {raw!r}")
    return threads


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graphs(text: str, fmt: str) -> list[Graph]:
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            graphs.append(parse_graph6(line))
    if not graphs:
        raise GraphFormatError("no graphs in input")
    return graphs


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    graphs = _load_graphs(_read_text(args.input), args.format)
    engine = RecognitionEngine(limit=_recognition_limit())
    lines = []
    for idx, g in enumerate(graphs):
        cert_ref = None
        outcome = engine.recognize(g) if args.cert_out else None
        if outcome is not None and outcome.quasiperfect:
            stem = Path(args.cert_out)
            path = stem if len(graphs) == 1 else stem.with_name(
                f"{stem.stem}-{idx}{stem.suffix}")
            path.write_text(certificate_to_json(g, outcome.certificate))
            cert_ref = str(path)
        record = build_classification_record(g, engine=engine, cert_ref=cert_ref)
        lines.append(json.dumps(record.to_dict()))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_construct_spec(words: list[str]) -> Graph | FamilyGraph:
    if not words:
        raise ValueError("empty construction spec")
    kind, params = words[0], {}
    for tok in words[1:]:
        if "=" not in tok:
            raise ValueError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        params[key] = val
    if kind == "family":
        try:
            n = int(params.pop("n"))
            raw = params.pop("k").strip("{}")
            ks = tuple(int(x) for x in raw.split(",") if x)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"family needs n=<odd> k=<list>: {exc}") from exc
        if params:
            raise ValueError(f"unknown family parameters {sorted(params)}")
        return odd_cycle_family(FamilySpec(n, ks))
    if kind == "c5blowup":
        try:
            t = int(params.pop("t"))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"c5blowup needs t=<int>: {exc}") from exc
        if params:
            raise ValueError(f"unknown c5blowup parameters {sorted(params)}")
        return c5_blowup_with_apex(t)
    raise ValueError(f"unknown construction {kind!r}")


def _cmd_construct(args: argparse.Namespace) -> int:
    built = _parse_construct_spec(args.spec)
    lines = []
    if isinstance(built, Graph):
        lines.append(emit_graph6(built))
    else:
        fg = built
        lines.append(emit_graph6(fg.graph))
        lines.append("PK " + " ".join(map(str, bit_members(family_prime_clique(fg)))))
        lines.append("PI " + " ".join(map(str, bit_members(
            family_prime_independent_set(fg)))))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suites = SUITES.values() if args.suite == "all" else [SUITES[args.suite]]
    reports = [fn(args.n_max, threads=args.threads) for fn in suites]
    if len(reports) == 1:
        payload = reports[0].to_json()
    else:
        payload = json.dumps(
            {"schema": REPORT_SCHEMA, "reports": [r.to_json_dict() for r in reports]},
            indent=2) + "\n"
    _emit(payload, args.out)
    return 0 if all(r.passed for r in reports) else 2


def _cmd_survey(args: argparse.Namespace) -> int:
    report = SURVEYS[args.survey](args.n_max, threads=args.threads)
    _emit(report.to_json(), args.out)
    return 0


def _cmd_supergraph(args: argparse.Namespace) -> int:
    graphs = _load_graphs(_read_text(args.input), args.format)
    if len(graphs) != 1:
        raise GraphFormatError("supergraph search takes exactly one input graph")
    engine = RecognitionEngine(limit=_recognition_limit())
    found = minimal_qp_supergraph(graphs[0], args.k_max, engine=engine)
    if found is None:
        doc = {"found": False, "k_max": args.k_max}
    else:
        witness, added = found
        doc = {"found": True, "added": added, "graph6": emit_graph6(witness)}
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpkit", description="quasiperfect graph toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", default="-",
                       help="input file, or - for stdin")
        p.add_argument("--format", choices=("graph6", "edgelist"),
                       default="graph6")
        p.add_argument("--out", default=None, help="write output to a file")

    def add_sweep(p: argparse.ArgumentParser) -> None:
        p.add_argument("--n-max", type=int, default=6)
        p.add_argument("--threads", type=_thread_count, default=1)
        p.add_argument("--out", default=None)

    p = sub.add_parser("classify", help="invariants plus recognition verdict")
    add_io(p)
    p.add_argument("--cert-out", default=None,
                   help="write certificate JSON here when quasiperfect")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("construct", help="build a named graph construction")
    p.add_argument("spec", nargs="+",
                   help="e.g. 'family n=5 k=1,3' or 'c5blowup t=3'")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=(*SUITES, "all"))
    add_sweep(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("survey", help="run reporting-only sweeps")
    p.add_argument("survey", choices=tuple(SURVEYS))
    add_sweep(p)
    p.set_defaults(fn=_cmd_survey)

    p = sub.add_parser("supergraph", help="search for a quasiperfect extension")
    add_io(p)
    p.add_argument("--k-max", type=int, default=2)
    p.set_defaults(fn=_cmd_supergraph)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _LIMIT_ERRORS as exc:
        print(f"qpkit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"qpkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
