"""Outside-in tracing of qpkit for the per-layer metrics.

``Tracer.install`` wraps the public functions of each qpkit module from
outside.  Modules import these functions by name (``recognition`` holds
its own ``canonical_form``, ``invariants`` its own ``complement``), so a
wrapper is bound to every attribute of every ``qpkit`` module that refers
to the wrapped object, not only in the defining module.  Methods are
wrapped on their class.  ``uninstall`` restores every binding.

Each wrapped call records a span (name, start, end, parent, run id) in
arrays kept in memory; ``write`` saves them when the
pass ends, and ``metrics`` derives calls and self time from them.  Self
time is a span's duration minus the durations of its child spans; one
thread runs everything, so children never overlap.  A few counters ride
on the same wrappers or on count-only hooks, which record no span.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# metric prefix -> (module, attribute path) of the wrapped callable
SPANNED = {
    "graphs.Graph": ("graphs", "Graph.__post_init__"),
    "graphs.induced_subgraph": ("graphs", "induced_subgraph"),
    "graphs.complement": ("graphs", "complement"),
    "graphs.permute": ("graphs", "permute"),
    "graphs.parse_graph6": ("graphs", "parse_graph6"),
    "graphs.emit_graph6": ("graphs", "emit_graph6"),
    "canonical.canonical_form": ("canonical", "canonical_form"),
    "canonical.max_codes_batch": ("canonical", "max_codes_batch"),
    "invariants.maximum_cliques": ("invariants", "maximum_cliques"),
    "invariants.clique_number": ("invariants", "clique_number"),
    "invariants.chromatic_number": ("invariants", "chromatic_number"),
    "invariants.maximum_independent_sets": ("invariants", "maximum_independent_sets"),
    "invariants.PerfectionChecker.is_perfect": ("invariants", "PerfectionChecker.is_perfect"),
    "recognition.recognize": ("recognition", "RecognitionEngine.recognize"),
    "recognition.is_quasiperfect": ("recognition", "RecognitionEngine.is_quasiperfect"),
    "recognition.verify_certificate": ("recognition", "verify_certificate"),
    "recognition.complement_certificate": ("recognition", "complement_certificate"),
    "recognition.certificate_to_json": ("recognition", "certificate_to_json"),
    "families.odd_cycle_family": ("families", "odd_cycle_family"),
    "families.lovasz_prime_clique": ("families", "lovasz_prime_clique"),
    "harness.enumerate_graphs": ("harness", "enumerate_graphs"),
    "harness.verify_theorem1": ("harness", "verify_theorem1"),
    "harness.verify_theorem2": ("harness", "verify_theorem2"),
    "harness.verify_perfect_subset": ("harness", "verify_perfect_subset"),
    "harness.build_classification_record": ("harness", "build_classification_record"),
    "cli.main": ("cli", "main"),
}

COUNTED = {
    "canonical.cache_hit_ratio": "ratio",
    "canonical.cache_misses": "count",
    "canonical.max_codes_batch.graphs": "count",
    "recognition.nodes_explored": "count",
    "recognition.memo_hits": "count",
    "recognition.memo_hit_ratio": "ratio",
    "recognition.pi_candidates": "count",
    "recognition.pk_candidates": "count",
    "recognition.branch_accept_ratio": "ratio",
    "recognition.certificate_to_json.bytes": "B",
    "recognition.cert_nodes": "count",
}

# every per-layer metric a traced pass reports, with its unit
LAYER_METRICS = {
    **{f"{name}.{part}": unit for name in SPANNED
       for part, unit in (("calls", "count"), ("self_s", "s"))},
    **COUNTED,
}


def _module(short: str):
    return sys.modules[f"qpkit.{short}"]


def _resolve(short: str, path: str):
    """(owner, attribute, original) for a module function or a class method."""
    owner = _module(short)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr] if classes else getattr(owner, attr)


class Tracer:
    def __init__(self) -> None:
        self.names = list(SPANNED)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_id = 0
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._cache_source = None  # the lru_cache behind canonical_form
        self._cache_info = None

    def mark(self, run_id: int) -> None:
        self.run_id = run_id

    # -- installation

    def _bind(self, owner, attr: str, original, replacement) -> None:
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:  # every qpkit module attribute bound to the original
            targets = [(mod, name) for key, mod in list(sys.modules.items())
                       if mod is not None and (key == "qpkit" or key.startswith("qpkit."))
                       for name, value in list(vars(mod).items()) if value is original]
        for obj, name in targets:
            self._undo.append((obj, name, original))
            setattr(obj, name, replacement)

    def _spanned(self, nid: int, fn, after=None):
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self) -> None:
        counts = self.counts
        after = {
            "canonical.max_codes_batch": lambda args, out: counts.update(
                {"canonical.max_codes_batch.graphs": len(args[0])}),
            "recognition.recognize": lambda args, out: counts.update({
                "recognition.nodes_explored": out.stats.nodes_explored,
                "recognition.memo_hits": out.stats.memo_hits}),
            "recognition.certificate_to_json": lambda args, out: counts.update(
                {"recognition.certificate_to_json.bytes": len(out.encode())}),
        }
        for nid, (name, (short, path)) in enumerate(SPANNED.items()):
            owner, attr, original = _resolve(short, path)
            if name == "canonical.canonical_form":
                self._cache_source = original
            self._bind(owner, attr, original, self._spanned(nid, original, after.get(name)))

        rec = _module("recognition")
        pi_fn, pk_fn = rec.prime_independent_sets, rec.prime_cliques
        pk_code = pk_fn.__code__

        def counting(gen, key):
            for mask in gen:
                counts[key] += 1
                yield mask

        def pi_candidates(g):
            if sys._getframe(1).f_code is pk_code:
                return pi_fn(g)  # the PI call nested in prime_cliques counts as PK
            return counting(pi_fn(g), "recognition.pi_candidates")

        def pk_candidates(g):
            return counting(pk_fn(g), "recognition.pk_candidates")

        self._bind(rec, "prime_independent_sets", pi_fn, pi_candidates)
        self._bind(rec, "prime_cliques", pk_fn, pk_candidates)

        engine_cls = rec.RecognitionEngine
        first_branch = engine_cls.__dict__["_first_branch"]

        def counted_first_branch(engine, g, candidates):
            mask = first_branch(engine, g, candidates)
            if mask is not None:
                counts["recognition.branches_accepted"] += 1
            return mask

        self._bind(engine_cls, "_first_branch", first_branch, counted_first_branch)

        cert_cls = rec.QpCertificate
        cert_init = cert_cls.__dict__["__init__"]

        def counted_init(cert, *args, **kwargs):
            counts["recognition.cert_nodes"] += 1
            cert_init(cert, *args, **kwargs)

        self._bind(cert_cls, "__init__", cert_init, counted_init)

    def uninstall(self) -> None:
        while self._undo:
            obj, name, value = self._undo.pop()
            setattr(obj, name, value)
        self._cache_info = self._cache_source.cache_info()

    # -- results

    def write(self, path: Path) -> None:
        """Spans as raw arrays in ``path``, described by ``path`` + .json."""
        fields = [("name", self.span_name), ("parent", self.span_parent),
                  ("run", self.span_run), ("start", self.span_start), ("end", self.span_end)]
        with open(path, "wb") as fh:
            for _, arr in fields:
                arr.tofile(fh)
        Path(f"{path}.json").write_text(json.dumps({
            "count": len(self.span_start),
            "names": self.names,
            "fields": [[name, arr.typecode, arr.itemsize] for name, arr in fields],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
            "parent": "index of the enclosing span, -1 for none",
            "run": "item index within the pass",
        }, indent=1))

    def metrics(self) -> dict[str, float]:
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        count = len(starts)
        covered = array("d", bytes(8 * count))
        for i in range(count):
            if parents[i] >= 0:
                covered[parents[i]] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i]
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]

        c = self.counts
        info = self._cache_info
        lookups = info.hits + info.misses
        searched = c["recognition.nodes_explored"] + c["recognition.memo_hits"]
        candidates = c["recognition.pi_candidates"] + c["recognition.pk_candidates"]
        out.update({
            "canonical.cache_hit_ratio": info.hits / lookups if lookups else 0.0,
            "canonical.cache_misses": info.misses,
            "recognition.memo_hit_ratio":
                c["recognition.memo_hits"] / searched if searched else 0.0,
            "recognition.branch_accept_ratio":
                c["recognition.branches_accepted"] / candidates if candidates else 0.0,
        })
        for key in COUNTED:
            out.setdefault(key, c[key])
        return out
