"""One repetition of one workload, its set-up alone, or its check, in a
fresh interpreter.

Started by run.py as::

    PYTHONPATH=src python3 perfbench/worker.py rep WORKLOAD SEED MODE \\
        SCRATCH RESULT
    PYTHONPATH=src python3 perfbench/worker.py setup WORKLOAD SEED \\
        SCRATCH RESULT
    PYTHONPATH=src python3 perfbench/worker.py check WORKLOAD SEED \\
        REP_RESULT RESULT

``rep`` runs the workload's phases (see scenarios.py), times them and
writes one JSON object to RESULT, with the repetition's outputs and
their digest.  MODE is ``timed`` (host times sampled against the speed
slices of speed.py), ``traced`` (spans recorded, no slices) or
``untraced`` (neither: the traced run's base).  ``setup`` only sets the
workload up, samples the speed and exits at once.  ``check`` checks a
repetition's outputs against the workload's oracle, untimed, and writes
the problems found.  ``setup_done``, which the parent compares with its
own clock, is ``time.monotonic()``, which is system-wide on Linux.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time

from speed import NEAR, Probe


def _pin():
    """Keep this process, and the threads it starts, on one CPU.

    The session's client and server threads hand each request to one
    another; across two CPUs each hand-off wakes an idle virtual CPU,
    which a loaded host is slow to run, and that wait, not the program,
    then sets the latency of the small requests.  Only one thread holds
    the interpreter lock at a time, so one CPU takes nothing else
    away."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _setup(workload_name, seed, scratch):
    """Set the workload up; (workload, its set-up record)."""
    from scenarios import WORKLOADS

    workload = WORKLOADS[workload_name](int(seed), scratch)
    workload.setup()
    return workload, {"setup_done": time.monotonic(),
                      "setup_perf": time.perf_counter(),
                      "setup_cpu": time.process_time()}


def rep(workload_name, seed, mode, scratch, result_path):
    workload, record = _setup(workload_name, seed, scratch)
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe = Probe() if mode == "timed" else None

    ops = []
    #: (start, end, busy) of each operation, and of each release after one
    intervals = []
    releases = []
    errors = []

    def op(name, fn, *args, **kwargs):
        """Run one timed operation; a raised error is a failed op."""
        if probe is not None:
            probe.sample()
        span = tracer.begin("op." + name, "bench", op=len(ops)) \
            if tracer else None
        busy = time.process_time()
        begin = time.perf_counter()
        result = None
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception as exc:  # recorded, counted, and the run goes on
            errors.append("%s: %r" % (name, exc))
        finally:
            end = time.perf_counter()
            busy = time.process_time() - busy
            if span is not None:
                tracer.end(span)
        ops.append([name, end - begin, ok])
        intervals.append((begin, end, busy))
        if workload.collect_after_op and probe is not None:
            # what the operation built is released at its end, so that
            # collecting it is timed here and not inside a later one
            busy = time.process_time()
            begin = time.perf_counter()
            gc.collect()
            releases.append((begin, time.perf_counter(),
                             time.process_time() - busy))
        return result

    if tracer is not None:
        tracer.root = tracer.begin("bench.work", "bench")
    begin = time.perf_counter()
    workload.work(op)
    phase_s = time.perf_counter() - begin
    if tracer is not None:
        tracer.end(tracer.root)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        tracer.snapshot()
        layers = tracer.metrics(phase_s, [latency for name, latency, _ok
                                          in ops if name != "plain"])
        tracer.dump(result_path + ".spans.json")

    try:
        sim = workload.sim_overhead_pct()
    except (KeyError, ZeroDivisionError) as exc:
        sim = None
        errors.append("sim_overhead_pct: %r" % exc)
    outputs = workload.outputs()

    # releasing the workload: its own teardown, then its state collected.
    # The work's garbage is collected first, untimed, so that what is
    # timed does not depend on when the last automatic collection ran.
    gc.collect()
    if probe is not None:
        probe.sample(force=True)
    busy = time.process_time()
    begin = time.perf_counter()
    workload.teardown()
    del workload
    gc.collect()
    end = time.perf_counter()
    busy = time.process_time() - busy
    teardown_s = end - begin
    if probe is not None:
        probe.sample(force=True)
        record["setup_factor"] = probe.factor(record["setup_perf"],
                                              record["setup_perf"])
        for entry, interval in zip(ops, intervals):
            entry += [probe.scale(*interval), interval[2]]
        record["releases_s"] = [probe.scale(*interval)
                                for interval in releases]
        record["teardown_scaled_s"] = probe.scale(begin, end, busy)
        record["slices_s"] = probe.cpu

    record.update({
        "phase_s": phase_s, "ops": ops, "outputs": outputs,
        "digest": hashlib.sha256(json.dumps(
            outputs, sort_keys=True).encode()).hexdigest(),
        "errors": errors[:20], "sim_overhead_pct": sim,
        "peak_rss_mb": peak_rss_mb, "teardown_s": teardown_s,
        "layers": layers})
    with open(result_path, "w") as out:
        json.dump(record, out)


def setup(workload_name, seed, scratch, result_path):
    _workload, record = _setup(workload_name, seed, scratch)
    probe = Probe()
    for _ in range(NEAR):
        probe.sample(force=True)
    record["setup_factor"] = probe.factor(record["setup_perf"],
                                          record["setup_perf"])
    with open(result_path, "w") as out:
        json.dump(record, out)
    sys.stdout.flush()
    # set-up alone: the process ends here, the workload's teardown (for
    # `session`, the server's close) is not waited for
    os._exit(0)


def check(workload_name, seed, rep_path, result_path):
    from scenarios import WORKLOADS

    with open(rep_path) as src:
        outputs = json.load(src)["outputs"]
    problems, sim = WORKLOADS[workload_name](int(seed)).check(outputs)
    with open(result_path, "w") as out:
        json.dump({"problems": problems, "sim_overhead_pct": sim}, out)


if __name__ == "__main__":
    _pin()
    {"rep": rep, "setup": setup, "check": check}[sys.argv[1]](*sys.argv[2:])
