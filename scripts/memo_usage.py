#!/usr/bin/env python3
"""Run one qpkit command, then report every process-wide memo and peak RSS.

Usage: memo_usage.py QPKIT-ARGS...

For example, ``memo_usage.py verify theorem2 --n-max 8``.  The command's
own output goes to standard output.  After it, one line per bounded
``functools.lru_cache`` in the qpkit modules (its ``cache_info()``), one
each (size and bound) for the set of codes the labeling search stops at
and the table of enumerated graphs that labeling answers without a
search, and the process's peak resident set size go to standard error.
The exit status is the command's, or 1 when a memo has reached its
maxsize: a memo that evicts during a sweep, or a table that stops
growing, does not fit the sweep it serves.

The memos are those of labeling, key decoding and maximum cliques.
Recognition keeps none: its verdicts and certificate facts live in each
engine's store, bounded by the engine's memo capacity
(``MemoCapacityError``), and leave with the engine.
"""

import resource
import sys

import qpkit.cli
from qpkit import canonical


def bounded_memos() -> list[tuple[str, object]]:
    """(qualified name, function) of every bounded lru_cache in qpkit, once each."""
    found: dict[int, tuple[str, object]] = {}
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "qpkit" or name.startswith("qpkit.")):
            continue
        for fn in vars(mod).values():
            info = getattr(fn, "cache_info", None)
            if info is not None and info().maxsize is not None and fn.__module__ == name:
                found.setdefault(id(fn), (f"{name}.{fn.__qualname__}", fn))
    return sorted(found.values(), key=lambda item: item[0])


def main() -> int:
    status = qpkit.cli.main(sys.argv[1:])
    full = []
    for name, fn in bounded_memos():
        info = fn.cache_info()
        print(f"{name}: {info}", file=sys.stderr)
        if info.currsize >= info.maxsize:
            full.append(name)
    tables = [(f"qpkit.canonical.{name}", getattr(canonical, name), bound)
              for name, bound in (("_known_codes", canonical._KNOWN_CODES_MAX),
                                  ("_enumerated", canonical._ENUMERATED_MAX))]
    for name, held, bound in tables:
        kind, size = type(held).__name__, len(held)
        print(f"{name}: {kind}(maxsize={bound}, currsize={size})", file=sys.stderr)
        if size >= bound:
            full.append(name)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"peak RSS: {peak / 1024:.1f} MiB", file=sys.stderr)
    if full:
        print(f"memos at maxsize: {', '.join(full)}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
