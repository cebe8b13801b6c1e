"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {tables,watch,session} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each repetition of the workload runs
in a fresh interpreter (worker.py); repetitions start until
``--seconds`` have passed, at least two, and further
interpreters only set the workload up, until there are ``SETUP_SAMPLES``
set-up times.  A process of its own then checks the first repetition's
outputs, untimed.  Host times are read at a reference machine speed
(speed.py).  With ``--trace 0`` the run prints every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` it runs the workload untraced, traced and untraced
again, and prints every per-layer metric of the traced repetition.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Raw repetitions, the run
context and the traced run's spans are written under ``.perfbench_out/``
in the checkout.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_REPS = 2
#: set-up times per run, from repetitions and set-up-only interpreters
SETUP_SAMPLES = 5
#: a failed operation counts as taking this long (the client's request
#: timeout), so it misses every latency limit
FAILED_OP_S = 60.0
#: seconds into a run by which repetitions, and then the check, must end
#: (a run must end within 180 s)
REPS_LIMIT_S = 150.0
RUN_LIMIT_S = 175.0


def calibrate():
    """The speed slice of speed.py (median of nine), recorded with every
    result so a slower runner can be told from a slower commit."""
    return statistics.median(speed.slice_s() for _ in range(9))


def source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as data:
                    digest.update(data.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def worker(args, deadline):
    """Run worker.py with *args* in a fresh interpreter, from the root of
    the checkout; returns (spawned, exited, error text or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")]
                            + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        _out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return spawned, time.monotonic(), "timed out"
    if proc.returncode != 0:
        return spawned, time.monotonic(), "exit %d: %s" % (
            proc.returncode, err[-2000:])
    return spawned, time.monotonic(), None


def run_rep(workload, seed, mode, index, deadline):
    """Run one repetition in *mode* (``timed``, ``traced``, ``untraced``,
    or ``setup`` for set-up alone); its result dict, or a dict holding
    the reason in ``crash`` if it did not finish."""
    tag = "%s-%d-%s-%d" % (workload, seed, mode, index)
    scratch = os.path.join(OUT, "tmp", "%d-%s" % (os.getpid(), tag))
    os.makedirs(scratch)
    path = os.path.join(OUT, "rep-%s.json" % tag)
    args = ["setup", workload, str(seed)] if mode == "setup" else \
        ["rep", workload, str(seed), mode]
    spawned, exited, error = worker(args + [scratch, path], deadline)
    shutil.rmtree(scratch, ignore_errors=True)
    if error is not None:
        return {"crash": error, "duration": exited - spawned}
    with open(path) as src:
        rep = json.load(src)
    rep["path"] = path
    rep["setup_s"] = rep["setup_done"] - spawned
    if "setup_factor" in rep:
        # interpreter start, imports and set-up are busy time, read at
        # the reference speed like every other host time
        busy = min(rep["setup_cpu"], rep["setup_s"])
        rep["setup_scaled_s"] = rep["setup_s"] - busy + \
            busy * rep["setup_factor"]
    rep["duration"] = exited - spawned
    return rep


def run_check(workload, seed, rep, deadline):
    """Check a repetition's outputs in a process of its own, untimed:
    (problems, sim_overhead_pct or None)."""
    path = rep["path"][:-len(".json")] + ".check.json"
    error = worker(["check", workload, str(seed), rep["path"], path],
                   deadline)[2]
    if error is not None:
        return ["check did not finish: %s" % error], None
    with open(path) as src:
        checked = json.load(src)
    return checked["problems"], checked["sim_overhead_pct"]


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def host_times(reps, plain, failed_s=None):
    """Per repetition, the host times (read at the reference speed) of
    its plain or its checked operations, in order; a failed operation
    counts as *failed_s* if given."""
    return [[failed_s if failed_s is not None and not ok else scaled
             for name, _raw, ok, scaled, _busy in rep["ops"]
             if (name == "plain") == plain] for rep in reps]


def per_op(seqs):
    """Each operation's median host time across repetitions, in sequence
    order, so that a burst of machine noise in one repetition does not
    move it.  Repetitions of a seed run the same sequence; if one did
    not, every time of every repetition."""
    if len({len(seq) for seq in seqs}) != 1:
        return [value for seq in seqs for value in seq]
    return [statistics.median(column) for column in zip(*seqs)]


def fixed_work(seqs):
    """Host time of a fixed sequence of operations: the sum of their
    medians (per_op), or, if the repetitions ran different sequences,
    the median of the per-repetition sums."""
    if len({len(seq) for seq in seqs}) != 1:
        return statistics.median(sum(seq) for seq in seqs)
    return sum(per_op(seqs))


def end_to_end(reps, setups):
    latencies = per_op(host_times(reps, plain=False, failed_s=FAILED_OP_S))
    wall_s = fixed_work(host_times(reps, plain=False))
    return {
        "setup_s": statistics.median(r["setup_scaled_s"] for r in setups),
        "wall_s": wall_s,
        "op_p50_ms": percentile(latencies, 50) * 1e3,
        "op_p95_ms": percentile(latencies, 95) * 1e3,
        "armed_host_ratio": wall_s / fixed_work(host_times(reps,
                                                           plain=True)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "teardown_s": statistics.median(
            r["teardown_scaled_s"] + sum(r["releases_s"]) for r in reps),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print("error: no program source at %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        spec = json.load(src)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("error: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + REPS_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    context = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "seconds": args.seconds,
               "python": platform.python_version(),
               "nproc": os.cpu_count(), "commit": commit(),
               "src_sha256": source_digest(),
               "fast_path_env": os.environ.get("REPRO_FAST_PATH"),
               "calibration_s": calibrate()}
    from scenarios import SESSION_SCALE, TABLES_SCALE, WATCH_PROGRAMS
    context["scale"] = {"tables": TABLES_SCALE, "session": SESSION_SCALE,
                        "watch": {name: scale
                                  for name, scale, _s in WATCH_PROGRAMS}
                        }[args.workload]
    print("context " + json.dumps(context, sort_keys=True))

    reps = []
    setups = []
    if args.trace:
        # untraced, traced, untraced: the overhead is measured against
        # the mean of the two runs around the traced one
        for index, mode in enumerate(("untraced", "traced", "untraced")):
            reps.append(run_rep(args.workload, args.seed, mode, index,
                                deadline))
    else:
        begin = time.monotonic()
        while len(reps) < MIN_REPS or \
                time.monotonic() - begin < args.seconds:
            reps.append(run_rep(args.workload, args.seed, "timed",
                                len(reps), deadline))
            if time.monotonic() + reps[-1]["duration"] > deadline:
                break
        while len(reps) + len(setups) < SETUP_SAMPLES:
            setups.append(run_rep(args.workload, args.seed, "setup",
                                  len(setups), deadline))
    good = [rep for rep in reps if "crash" not in rep]
    for rep in reps:
        if "crash" in rep:
            print("repetition failed: %s" % rep["crash"], file=sys.stderr)
        for line in rep.get("errors", []):
            print("  %s" % line[:300])
    setup_crashes = [rep for rep in setups if "crash" in rep]
    for rep in setup_crashes:
        print("set-up failed: %s" % rep["crash"], file=sys.stderr)
    setups = good + [rep for rep in setups if "crash" not in rep]
    if not good or (args.trace and len(good) < 3):
        print("error: no repetition finished", file=sys.stderr)
        return 1
    problems, sim = run_check(args.workload, args.seed, good[0],
                              started + RUN_LIMIT_S)
    for line in problems:
        print("  check: %s" % line[:300])
    sims = {rep["sim_overhead_pct"] for rep in good} - {None}
    if sim is None:
        sim = good[0]["sim_overhead_pct"]
    if sim is None:
        print("error: no sim_overhead_pct", file=sys.stderr)
        return 1

    # the check is one more operation; a failed set-up counts as a
    # crashed repetition
    crashed = len(reps) - len(good) + len(setup_crashes)
    attempted = sum(len(rep["ops"]) for rep in good) + crashed + 1
    failed = sum(1 for rep in good for op in rep["ops"] if not op[2]) \
        + crashed + (1 if problems else 0)
    correct = not crashed and not problems and len(sims) <= 1 and \
        len({rep["digest"] for rep in good}) == 1

    if args.trace:
        before, traced, after = good
        values = dict(traced["layers"])
        untraced = (before["phase_s"] + after["phase_s"]) / 2
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_s"] = traced["phase_s"] - untraced
        wanted = spec["per_layer"]
    else:
        values = end_to_end(good, setups)
        values["sim_overhead_pct"] = sim
        wanted = spec["end_to_end"]
        print("as measured: wall_s %.6f s, setup_s %.6f s; speed slice "
              "%.6f s (median; reference %.3f s)" % (
                  fixed_work([[op[1] for op in rep["ops"]
                               if op[0] != "plain"] for rep in good]),
                  statistics.median(rep["setup_s"] for rep in setups),
                  statistics.median(t for rep in good
                                    for t in rep["slices_s"]),
                  speed.REFERENCE_SLICE_S))
    metrics = {}
    print("%s seed=%d reps=%d attempted=%d failed=%d error_rate=%.4f "
          "correct=%s" % (args.workload, args.seed, len(reps), attempted,
                          failed, failed / max(1, attempted), correct))
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print("  %-34s %16.6f %-8s (%s is better)" % (
            metric["name"], value, metric["unit"], metric["better"]))
    with open(os.path.join(OUT, "result-%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as out:
        json.dump({"context": context, "reps": reps, "problems": problems,
                   "values": values}, out)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
