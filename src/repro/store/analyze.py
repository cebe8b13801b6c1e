"""``repro analyze``: cross-run analytics over the persistent store.

Subverbs (each printable as a table or ``--json``):

* ``runs`` — the stored run headers (id, workload, scale, seed,
  monitor-set digest, instructions, wall time, ingest count);
* ``hot`` — hottest written regions across runs, adjacent hot words
  merged into contiguous regions;
* ``writes`` — write-pattern statistics per run: writes/kinstr,
  monitored-hit ratio, distinct words, per-word densities;
* ``regress`` — overhead deltas between two runs of a workload, with
  a ``--threshold`` beyond which the exit code is 1;
* ``provenance`` — last-write lookup across stored runs: the watch
  expression resolves through the workload registry (stored traces
  are self-describing, so no source file is needed for §6 workloads)
  or ``--source FILE``, or give ``--addr/--size`` directly;
* ``stats`` — store totals: dedup ratio, payload bytes, duplicates.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from repro.errors import StoreError
from repro.store.store import DEFAULT_STORE_PATH, TraceStore

__all__ = ["add_analyze_parser", "run_analyze"]


def add_analyze_parser(subparsers) -> None:
    import argparse

    parser = subparsers.add_parser(
        "analyze", help="cross-run analytics over a persistent "
                        "trace store")
    # --db/--json are accepted both before and after the subverb; the
    # subverb copies default to SUPPRESS so an unset post-verb flag
    # cannot clobber a pre-verb value
    parser.add_argument("--db", default=DEFAULT_STORE_PATH,
                        metavar="PATH",
                        help="store database (default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--db", default=argparse.SUPPRESS,
                        metavar="PATH")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    verbs = parser.add_subparsers(dest="analyze_verb")

    runs = verbs.add_parser("runs", parents=[common],
                            help="list stored runs")
    runs.add_argument("--workload", default=None)

    hot = verbs.add_parser("hot", parents=[common],
                           help="hottest written regions")
    hot.add_argument("--workload", default=None)
    hot.add_argument("--top", type=int, default=10)

    writes = verbs.add_parser("writes", parents=[common],
                              help="write-pattern statistics per run")
    writes.add_argument("--workload", default=None)

    regress = verbs.add_parser(
        "regress", parents=[common],
        help="overhead deltas between runs (exit 1 past --threshold)")
    regress.add_argument("--workload", required=True)
    regress.add_argument("--runs", nargs=2, type=int, default=None,
                         metavar=("BASE", "CAND"),
                         help="compare these run ids (default: the "
                              "two newest)")
    regress.add_argument("--threshold", type=float, default=10.0,
                         metavar="PCT")

    provenance = verbs.add_parser(
        "provenance", parents=[common],
        help="last-write lookup across stored runs")
    provenance.add_argument("expression", nargs="?", default=None,
                            help="watch expression (g, a[3], s.f)")
    provenance.add_argument("--workload", default=None)
    provenance.add_argument("--run", type=int, default=None)
    provenance.add_argument("--source", default=None, metavar="FILE",
                            help="resolve the expression against this "
                                 "mini-C file (for non-registry runs)")
    provenance.add_argument("--addr", default=None,
                            help="raw address (decimal or 0x...)")
    provenance.add_argument("--size", type=int, default=4)
    provenance.add_argument("--before", type=int, default=None,
                            metavar="INDEX",
                            help="only writes stopping at or before "
                                 "this instruction index")

    verbs.add_parser("stats", parents=[common],
                     help="store totals and dedup ratio")


def _table(rows: List[Dict[str, Any]], columns: List[str]) -> str:
    if not rows:
        return "(no rows)"
    headers = {column: column for column in columns}
    widths = {column: len(column) for column in columns}
    rendered = []
    for row in [headers] + [
            {column: _cell(row.get(column)) for column in columns}
            for row in rows]:
        for column in columns:
            widths[column] = max(widths[column], len(str(row[column])))
        rendered.append(row)
    lines = []
    for i, row in enumerate(rendered):
        lines.append("  ".join(
            str(row[column]).ljust(widths[column])
            for column in columns).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[column]
                                   for column in columns))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%g" % value
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return str(value)


def _resolve_region(store: TraceStore, args) -> tuple:
    """(addr, size) for the provenance query."""
    if args.addr is not None:
        return int(args.addr, 0), args.size
    if args.expression is None:
        raise StoreError(
            "provenance needs an expression (with --workload or "
            "--source) or --addr", reason="unresolvable")
    source: Optional[str] = None
    lang = "C"
    if args.source is not None:
        with open(args.source) as handle:
            source = handle.read()
    else:
        # stored traces are self-describing: recover the program from
        # the run header and the workload registry
        runs = (store.runs(workload=args.workload)
                if args.run is None else [store.run(args.run)])
        if not runs:
            raise StoreError(
                "no stored runs%s" % (
                    " for workload %r" % args.workload
                    if args.workload else ""),
                reason="unknown_run", workload=args.workload)
        run = runs[-1]
        from repro.workloads import WORKLOADS, workload_source
        if run.workload not in WORKLOADS:
            raise StoreError(
                "run %d's workload %r is not in the registry; pass "
                "--source FILE or --addr" % (run.id, run.workload),
                reason="unresolvable", workload=run.workload)
        source = workload_source(run.workload, run.scale or 1.0)
        lang = run.lang or WORKLOADS[run.workload].lang
    from repro.debugger import Debugger
    debugger = Debugger.for_source(source, lang=lang, optimize=None)
    _entry, addr, size = debugger.resolve(args.expression)
    return addr, size


def run_analyze(args) -> int:
    verb = getattr(args, "analyze_verb", None)
    if verb is None:
        print("error: analyze needs a subverb "
              "(runs, hot, writes, regress, provenance, stats)",
              file=sys.stderr)
        return 2
    with TraceStore(args.db) as store:
        if verb == "runs":
            rows = [run.as_dict()
                    for run in store.runs(workload=args.workload)]
            return _emit(args, rows,
                         ["id", "workload", "scale", "seed", "monitors",
                          "stride", "instructions", "trace_records",
                          "wall_time_s", "ingest_count"])
        if verb == "hot":
            rows = store.hot(workload=args.workload, top=args.top)
            for row in rows:
                row["addr"] = "0x%08x" % row["addr"]
            return _emit(args, rows,
                         ["addr", "size", "writes", "runs", "workloads"])
        if verb == "writes":
            rows = store.write_stats(workload=args.workload)
            return _emit(args, rows,
                         ["run", "workload", "writes", "reads",
                          "writes_per_kinstr", "monitored_hit_ratio",
                          "distinct_words", "mean_writes_per_word",
                          "peak_word_writes"])
        if verb == "regress":
            run_a, run_b = args.runs or (None, None)
            report = store.regress(args.workload, run_a=run_a,
                                   run_b=run_b,
                                   threshold_pct=args.threshold)
            if args.json:
                print(json.dumps(report, indent=2))
            else:
                _print_regress(report)
            return 1 if report["regressions"] else 0
        if verb == "provenance":
            addr, size = _resolve_region(store, args)
            rows = store.provenance(addr, size,
                                    workload=args.workload,
                                    run_id=args.run,
                                    before_index=args.before)
            for row in rows:
                if row["written"]:
                    row["pc"] = "0x%08x" % row["pc"]
                    row["addr"] = "0x%08x" % row["addr"]
                    row["change"] = "%d -> %d" % (row.pop("old"),
                                                  row.pop("new"))
                else:
                    row["change"] = "(never written)"
            print("-- provenance of 0x%08x+%d" % (addr, size))
            return _emit(args, rows,
                         ["run", "workload", "seed", "position",
                          "index", "pc", "addr", "size", "change"])
        if verb == "stats":
            stats = store.stats()
            if args.json:
                print(json.dumps(stats, indent=2))
            else:
                for key in sorted(stats):
                    print("%-20s %s" % (key, stats[key]))
            return 0
    print("error: unknown analyze subverb %r" % verb, file=sys.stderr)
    return 2


def _emit(args, rows: List[Dict[str, Any]],
          columns: List[str]) -> int:
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(_table(rows, columns))
    return 0


def _print_regress(report: Dict[str, Any]) -> None:
    candidate = report["candidate"]
    print("-- regress %s: candidate run %d"
          % (report["workload"], candidate["id"]))
    print("   baseline: run %d" % report["baseline"]["id"])
    for metric, delta in sorted(report["deltas_pct"].items()):
        flag = "  <-- REGRESSION" if metric in report["regressions"] \
            else ""
        print("   %-18s %s%%%s"
              % (metric, "-" if delta is None else "%+.2f" % delta,
                 flag))
    if report["regressions"]:
        print("   verdict: REGRESSION past %.1f%% threshold"
              % report["threshold_pct"])
    else:
        print("   verdict: ok (threshold %.1f%%)"
              % report["threshold_pct"])
