"""Experiment E8: Table-1-style overhead per *watchpoint kind*.

Table 1 prices the write-check fast path; this table prices the layer
above it — what one armed watchpoint costs per kind once the predicate
engine sits between MRS notifications and the debugger:

* **Unconditional** — plain data breakpoint, every hit fires;
* **Conditional** — ``$value == <sentinel>`` predicate chosen to
  reject >99% of hits, so the row measures pure evaluation cost;
* **Transition** — the same predicate armed on the ``rise`` edge, so
  the row adds shadow-truth tracking on top of evaluation.

Predicate evaluation happens in the host-level engine, not in
simulated instructions, so the honest metric is wall-clock time of the
driven debugger loop (stepped in ``STRIDE``-instruction chunks), as
overhead over a run with no watchpoint armed.  Simulated cycles would
show all three kinds as identical.  The repository benchmark's
``watch`` workload times armed runs end to end (``perfbench/NOTES.md``).

Run as ``python -m repro.eval.watchkinds [scale]``.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.debugger import Debugger
from repro.workloads import WORKLOADS, workload_source

#: (workload, watched expression): globals each workload is known to
#: write throughout its run.
TARGETS: List[Tuple[str, str]] = [
    ("023.eqntott", "__seed"),
    ("030.matrix300", "c[0]"),
]

#: table columns, in print order
KINDS = ["Unconditional", "Conditional", "Transition"]

#: a value no workload ever stores, so the conditional predicate
#: rejects (practically) every hit and the row isolates eval cost
SENTINEL = 123456789

#: instructions per step chunk when driving the debugger loop
STRIDE = 4096


def _make_debugger(name: str, scale: float, expr: str,
                   kind: Optional[str]) -> Debugger:
    workload = WORKLOADS[name]
    debugger = Debugger.for_source(workload_source(name, scale),
                                   lang=workload.lang)
    predicate = "$value == %d" % SENTINEL
    if kind == "Unconditional":
        debugger.watch(expr, action="log")
    elif kind == "Conditional":
        debugger.watch(expr, action="log", expr=predicate)
    elif kind == "Transition":
        debugger.watch(expr, action="log", expr=predicate, when="rise")
    elif kind is not None:
        raise ValueError("unknown watchpoint kind %r" % kind)
    return debugger


def _timed_run(debugger: Debugger) -> float:
    """Drive the debugger to exit in STRIDE-sized chunks; wall time."""
    begin = time.perf_counter()
    reason = "step"
    while reason == "step":
        reason = debugger.step(STRIDE)
    elapsed = time.perf_counter() - begin
    if reason != "exited":
        raise SystemExit("workload did not run to exit: %r" % reason)
    return elapsed


def measure_workload(name: str, expr: str, scale: float = 0.5,
                     repeats: int = 3) -> Dict[str, Dict[str, float]]:
    """Per-kind overhead (%) of one armed watchpoint on *name*.

    Returns ``{kind: {"overhead": %, "hits": n, "evals": n,
    "suppressed": n, "fired": n}}`` plus a ``"None"`` row holding the
    baseline wall time.  Plain/armed repeats are interleaved (best-of)
    so machine-load drift biases both sides equally.
    """
    _timed_run(_make_debugger(name, scale, expr, None))  # warm-up
    samples: Dict[Optional[str], List[float]] = \
        {kind: [] for kind in [None] + KINDS}
    stats: Dict[str, Dict[str, int]] = {}
    for _ in range(max(1, repeats)):
        for kind in [None] + KINDS:
            debugger = _make_debugger(name, scale, expr, kind)
            samples[kind].append(_timed_run(debugger))
            if kind is not None:
                watchpoint = debugger.watchpoints[0]
                stats[kind] = {"hits": watchpoint.stats.hits,
                               "evals": watchpoint.stats.evals,
                               "suppressed": watchpoint.stats.suppressed,
                               "fired": watchpoint.stats.fired}
    base = min(samples[None])
    results: Dict[str, Dict[str, float]] = {
        "None": {"seconds": base}}
    for kind in KINDS:
        row = dict(stats[kind])
        row["overhead"] = 100.0 * (min(samples[kind]) / base - 1.0)
        results[kind] = row
    return results


def measure_watchkinds(scale: float = 0.5, repeats: int = 3,
                       targets: Optional[List[Tuple[str, str]]] = None
                       ) -> Dict[str, Dict[str, Dict[str, float]]]:
    targets = targets or TARGETS
    return {name: measure_workload(name, expr, scale, repeats)
            for name, expr in targets}


def format_table(results: Dict[str, Dict[str, Dict[str, float]]]
                 ) -> str:
    header = ["%-18s" % "Program"] + ["%14s" % kind for kind in KINDS]
    lines = ["".join(header), "-" * (18 + 14 * len(KINDS))]
    for name, rows in results.items():
        cells = ["%-18s" % name]
        cells += ["%13.1f%%" % rows[kind]["overhead"] for kind in KINDS]
        lines.append("".join(cells))
        detail = rows["Conditional"]
        lines.append("    %d hits, %d evals, %d suppressed, %d fired "
                     "(conditional)"
                     % (detail["hits"], detail["evals"],
                        detail["suppressed"], detail["fired"]))
    return "\n".join(lines)


def main(scale: float = 0.5) -> Dict[str, Dict[str, Dict[str, float]]]:
    results = measure_watchkinds(scale)
    print("Watchpoint-kind overhead (wall-clock, one armed watchpoint, "
          "scale=%.2g)" % scale)
    print(format_table(results))
    return results


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.5)
