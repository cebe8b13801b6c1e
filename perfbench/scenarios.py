"""The benchmark's three workloads: ``tables``, ``watch`` and ``session``.

Each repetition of a workload runs in a fresh interpreter (worker.py)
in two phases:

* ``setup`` — imports, source generation, server boot (timed as set-up);
* ``work``  — the workload's fixed work, as a sequence of timed
  operations, each program's part next to a *plain* operation: the
  program run uninstrumented, on the fast path, to exit.  The plain
  operations are the base of ``armed_host_ratio`` and
  ``sim_overhead_pct`` and the output every checked run must match.

A repetition reports its ``outputs``; every repetition of a seed must
report the same.  ``check(outputs)`` then runs once per run, in a
process of its own and untimed, against an independent oracle.

The seed is the only source of variation; the program receives only the
generated inputs (sources, watch expressions, request scripts).
"""

from __future__ import annotations

import json
import os
import random
import re

HERE = os.path.dirname(os.path.abspath(__file__))

#: Table 1/2 scale: small, so the run is compile-bound as the paper
#: report at test scale is (block compile dominates host time)
TABLES_SCALE = 0.15
#: reference Table 1/2 values at TABLES_SCALE (simulated, exact)
TABLES_EXPECTED = os.path.join(HERE, "expected_tables.json")

#: (program, scale, watched global) — scales large enough that block
#: compile is a small share of the armed run; matrix300 grows as n^3
WATCH_PROGRAMS = [("023.eqntott", 6.0, "__seed"),
                  ("030.matrix300", 2.0, "c"),
                  ("022.li", 4.0, "hp"),
                  ("042.fpppp", 8.0, "gout")]

#: (program, primary target, secondary target) for served sessions, at
#: scale 1.  The primary is written all through the run, so each
#: continue stops at its next write and a visit never reaches exit; the
#: seed picks array elements from pools that are written alike (column 0
#: of matrix300's ``c``), so seeds vary the inputs but not the work.
SESSION_PROGRAMS = [("023.eqntott", "__seed", "terms"),
                    ("030.matrix300", "c", "c"),
                    ("022.li", "hp", "heap"),
                    ("001.gcc1.35", "node_count", "__seed")]
SESSION_SCALE = 1.0
SESSION_STRIDE = 2000
SESSION_CONTINUES = 16
SESSION_VISITS = 3


def _source(name, scale):
    from repro.workloads import WORKLOADS, workload_source
    return workload_source(name, scale), WORKLOADS[name].lang


def _plain_run(source, lang):
    """One uninstrumented fast-path run: (cycles, output)."""
    from repro.minic.codegen import compile_source
    from repro.session import run_uninstrumented
    code, loaded = run_uninstrumented(compile_source(source, lang=lang),
                                      fast_path=True)
    if code != 0:
        raise RuntimeError("plain run exited with %r" % code)
    return loaded.cpu.cycles, list(loaded.output)


def _dims(source, symbol):
    """Dimensions of the global int *symbol* declared in *source*
    (empty for a scalar)."""
    match = re.search(r"^int %s((?:\[\d+\])*);" % re.escape(symbol),
                      source, re.M)
    if match is None:
        raise ValueError("no global int %r" % symbol)
    return [int(dim) for dim in re.findall(r"\d+", match.group(1))]


def _pick(rng, source, symbol):
    """A watch expression for *symbol*: the scalar itself, any element
    of a vector, or an element of column 0 of a matrix."""
    dims = _dims(source, symbol)
    if not dims:
        return symbol
    if len(dims) == 1:
        return "%s[%d]" % (symbol, rng.randrange(dims[0]))
    return "%s[%d]" % (symbol, rng.randrange(dims[0]) * dims[1])


class Tables:
    """Regenerate the paper's Tables 1 and 2 over all ten programs."""

    scale = TABLES_SCALE
    #: release each operation's garbage at its end (worker.py)
    collect_after_op = True

    def __init__(self, seed, scratch=None):
        self.seed = seed
        self.table1 = {}
        self.table2 = {}
        self.plain_cycles = {}

    def setup(self):
        from repro.eval import table1, table2
        from repro.workloads import WORKLOAD_ORDER
        self.t1 = table1
        self.t2 = table2
        self.order = list(WORKLOAD_ORDER)
        random.Random(self.seed).shuffle(self.order)

    def work(self, op):
        # each program's plain run beside its rows, so that
        # armed_host_ratio compares measurements taken together
        for name in self.order:
            plain = op("plain", _plain_run, *_source(name, self.scale))
            if plain is not None:
                self.plain_cycles[name] = plain[0]
            row = op("table1", self.t1.measure_table1, self.scale, [name])
            if row is not None:
                self.table1.update(row)
            row = op("table2", self.t2.measure_table2, self.scale, [name])
            if row is not None:
                self.table2.update(row)

    def outputs(self):
        return {"table1": self.table1, "table2": self.table2,
                "plain": self.plain_cycles}

    def sim_overhead_pct(self):
        summary = self.t1.summarize(self.table1)
        return summary["overall"]["BitmapInlineRegisters"]

    def check(self, outputs):
        """Every cell equals the reference table at this scale.  (Each
        instrumented run's output is compared with its uninstrumented
        run inside the eval harness, which raises on a mismatch.)"""
        with open(TABLES_EXPECTED) as src:
            expected = json.load(src)
        problems = []
        if expected["scale"] != self.scale:
            problems.append("expected tables are for scale %r"
                            % expected["scale"])
        for label in ("table1", "table2"):
            got = outputs[label]
            for name, row in expected[label].items():
                for column, value in row.items():
                    measured = got.get(name, {}).get(column)
                    if measured is None or \
                            abs(measured - value) > 1e-9 * max(1.0,
                                                               abs(value)):
                        problems.append("%s %s %s: %r != %r" % (
                            label, name, column, measured, value))
        return problems, None

    def teardown(self):
        pass


class Watch:
    """Long armed debugger runs to exit, one per program."""

    collect_after_op = True

    def __init__(self, seed, scratch=None):
        self.seed = seed
        self.armed = {}
        self.plain_cycles = {}
        self.plain_output = {}

    def setup(self):
        from repro.debugger import Debugger
        self.Debugger = Debugger
        self.programs = self._programs()

    def _programs(self):
        """(name, source, lang, watch expression, conditional bound)."""
        rng = random.Random(self.seed)
        programs = []
        for name, scale, symbol in WATCH_PROGRAMS:
            source, lang = _source(name, scale)
            count = 1
            for dim in _dims(source, symbol):
                count *= dim
            expr = symbol if count == 1 else \
                "%s[%d]" % (symbol, rng.randrange(count))
            # the conditional watchpoint fires on a seeded share of
            # hp's values (hp counts cons cells, up to the heap size)
            bound = rng.randrange(16, 240) if name == "022.li" else None
            programs.append((name, source, lang, expr, bound))
        return programs

    def _armed(self, name, source, lang, expr, bound):
        debugger = self.Debugger.for_source(source, lang=lang)
        plain = debugger.watch(expr)
        cond = None
        if bound is not None:
            cond = debugger.watch(expr, expr="$value > %d" % bound)
        reason = debugger.run()
        return {"reason": reason, "cycles": debugger.cpu.cycles,
                "output": list(debugger.output),
                "hits": plain.hit_count(),
                "values": [value for _a, _s, value in plain.hits],
                "fired": cond.stats.fired if cond is not None else None}

    def work(self, op):
        # plain and armed side by side, so that armed_host_ratio
        # compares measurements taken together
        for name, source, lang, expr, bound in self.programs:
            plain = op("plain", _plain_run, source, lang)
            if plain is not None:
                self.plain_cycles[name], self.plain_output[name] = plain
            result = op("armed", self._armed, name, source, lang, expr,
                        bound)
            if result is not None:
                self.armed[name] = result

    def outputs(self):
        return {"plain_cycles": self.plain_cycles,
                "plain_output": self.plain_output, "armed": self.armed}

    def sim_overhead_pct(self):
        armed = sum(r["cycles"] for r in self.armed.values())
        plain = sum(self.plain_cycles[name] for name in self.armed)
        return 100.0 * (armed / plain - 1.0)

    def check(self, outputs):
        """Armed runs exit with the plain run's output; each unconditional
        hit count equals the writes to the watched bytes in a recorded
        uninstrumented run (the soundness oracle); the conditional
        watchpoint fired exactly on the hits whose value passes it."""
        from repro.asm.assembler import assemble
        from repro.minic.codegen import compile_source
        from repro.session import run_uninstrumented
        problems = []
        for name, source, lang, expr, bound in self._programs():
            got = outputs["armed"].get(name)
            if got is None:
                problems.append("%s: no armed run" % name)
                continue
            if got["reason"] != "exited":
                problems.append("%s stopped: %s" % (name, got["reason"]))
            if got["output"] != outputs["plain_output"].get(name):
                problems.append("%s output differs from plain" % name)
            asm = compile_source(source, lang=lang)
            _code, loaded = run_uninstrumented(asm, record_writes=True)
            lo, size = _address(assemble(asm).symtab, expr)
            writes = sum(1 for _site, addr, width in loaded.cpu.write_trace
                         if addr < lo + size and addr + width > lo)
            if writes != got["hits"]:
                problems.append("%s %s: %d hits, oracle %d writes" % (
                    name, expr, got["hits"], writes))
            if bound is not None:
                passing = sum(1 for v in got["values"] if v > bound)
                if passing != got["fired"]:
                    problems.append("%s: conditional fired %d, expected %d"
                                    % (name, got["fired"], passing))
        return problems, None

    def teardown(self):
        pass


def _address(symtab, expr):
    """(address, size) of a global ``name`` or ``name[k]``."""
    match = re.match(r"(\w+)(?:\[(\d+)\])?$", expr)
    entry = symtab.lookup(match.group(1))
    if match.group(2) is None:
        return entry.address, entry.size
    elem = entry.elem or 4
    return entry.address + int(match.group(2)) * elem, elem


def session_script(seed):
    """The seeded request script: per visit a program, its two watch
    targets, and three rounds of breakpoint sets.  The first two hold
    the primary target and, by the seed, the secondary; the last holds
    both, so that how far a continue runs depends on the targets the
    seed draws, not on whether it left one out.

    Each program is visited SESSION_VISITS times, with SESSION_CONTINUES
    continues per visit.
    One more visit is a quick look at 030.matrix300: a single continue,
    so ``reverseContinue`` lands before the first keyframe taken with
    the breakpoints armed.  That is the path of the known
    resume-after-reverse defect (NOTES.md), so the defect shows on
    every seed while it stands.
    """
    rng = random.Random(seed)
    visits = []
    for name, primary, secondary in SESSION_PROGRAMS * SESSION_VISITS + \
            SESSION_PROGRAMS[1:2]:
        source, _lang = _source(name, SESSION_SCALE)
        targets = [_pick(rng, source, primary)]
        while len(targets) < 2:
            target = _pick(rng, source, secondary)
            if target not in targets:
                targets.append(target)
        rounds = [[0, 1] if rng.random() < 0.5 else [0]
                  for _ in range(2)] + [[0, 1]]
        quick = len(visits) == SESSION_VISITS * len(SESSION_PROGRAMS)
        visits.append({"program": name, "targets": targets,
                       "rounds": rounds,
                       "continues": 1 if quick else SESSION_CONTINUES})
    rng.shuffle(visits)
    return visits


class Session:
    """A developer at one client, one connection, one request at a time."""

    #: requests take about a millisecond; a collection after each would
    #: outweigh them
    collect_after_op = False

    def __init__(self, seed, scratch=None):
        self.seed = seed
        #: directory for the server's hibernation files and trace store
        self.scratch = scratch
        self.stops = []
        self.plain_cycles = {}
        self.server = None
        self.client = None

    def setup(self):
        from repro.server import DebugClient, DebugServer, ServerConfig
        self.script = session_script(self.seed)
        self.sources = {name: _source(name, SESSION_SCALE)
                        for name, _primary, _secondary in SESSION_PROGRAMS}
        config = ServerConfig(
            max_sessions=4, workers=2,
            hibernate_dir=os.path.join(self.scratch, "frozen"),
            trace_store=os.path.join(self.scratch, "traces.sqlite"))
        self.server = DebugServer(config=config).start()
        self.client = DebugClient(port=self.server.port, timeout=60)
        self.client.initialize()

    def work(self, op):
        client = self.client
        for visit in self.script:
            source, lang = self.sources[visit["program"]]
            # the program's plain run beside each visit, so that
            # armed_host_ratio compares measurements taken together
            plain = op("plain", _plain_run, source, lang)
            if plain is not None:
                self.plain_cycles[visit["program"]] = plain[0]
            sid = op("launch", client.launch, source, lang=lang,
                     record={"stride": SESSION_STRIDE},
                     workload=visit["program"])
            if sid is None:
                continue
            ids = []
            for target in visit["targets"]:
                info = op("dataBreakpointInfo", client.data_breakpoint_info,
                          sid, target)
                ids.append(info["dataId"] if info else None)
            specs = []
            for chosen in visit["rounds"]:
                specs = [ids[i] for i in chosen if ids[i]]
                op("setDataBreakpoints", client.set_data_breakpoints, sid,
                   [{"dataId": data_id, "stop": True} for data_id in specs])
            for _ in range(visit["continues"]):
                self._stop("continue", op("continue", client.cont, sid))
            self._stop("reverseContinue",
                       op("reverseContinue", client.reverse_continue, sid))
            target = visit["targets"][visit["rounds"][-1][0]]
            answer = op("lastWrite", client.last_write, sid, target)
            self.stops.append(("lastWrite", target) + (
                (answer.get("found"), answer.get("pc"),
                 answer.get("instruction"), answer.get("newValue"))
                if answer else (None,)))
            op("hibernate", client.hibernate, sid)
            op("resume", client.resume, sid)
            op("disconnect", client.disconnect, sid)
            # the developer's front end consumes the event stream
            client.pop_events()

    def _stop(self, command, body):
        if body is None:
            self.stops.append((command, None))
        else:
            self.stops.append((command, body.get("reason"),
                               body.get("symbol"), body.get("value"),
                               body.get("instructions")))

    def outputs(self):
        return {"stops": self.stops, "plain_cycles": self.plain_cycles}

    def sim_overhead_pct(self):
        """Known only to check(), which makes the direct run."""
        return None

    def check(self, outputs):
        """The served stop sequence equals a direct in-process Debugger
        run of the same script, with no server.  Also returns
        sim_overhead_pct, from that direct run."""
        script = session_script(self.seed)
        sources = {name: _source(name, SESSION_SCALE)
                   for name, _primary, _secondary in SESSION_PROGRAMS}
        expected, exit_cycles = direct_run(script, sources)
        plain = outputs["plain_cycles"]
        sim = 100.0 * (sum(cycles for _name, cycles in exit_cycles)
                       / sum(plain[name] for name, _c in exit_cycles) - 1.0)
        served = [tuple(stop) for stop in outputs["stops"]]
        if expected == served:
            return [], sim
        for index, (want, got) in enumerate(zip(expected, served)):
            if want != got:
                return ["stop %d: served %r, direct %r" % (index, got,
                                                           want)], sim
        return ["%d stops served, %d direct" % (len(served),
                                                len(expected))], sim

    def teardown(self):
        if self.client is not None:
            self.client.close()
        if self.server is not None:
            self.server.close()


def direct_run(script, sources):
    """Replay *script* against in-process Debuggers, the way the server's
    handlers drive them.  Returns the stop sequence and, per full visit,
    the simulated cycles of then running on to exit with both targets
    armed log-only (the same checks on every seed)."""
    from repro.debugger import Debugger
    from repro.isa.instructions import to_signed
    from repro.machine.cpu import SimulationLimit
    from repro.server.handlers import DEFAULT_QUOTA

    stops = []
    exit_cycles = []
    for visit in script:
        source, lang = sources[visit["program"]]
        debugger = Debugger.for_source(source, lang=lang)
        debugger.record(stride=SESSION_STRIDE)
        armed = []
        names = []
        for chosen in visit["rounds"]:
            for watchpoint in armed:
                debugger.unwatch(watchpoint)
            names = [visit["targets"][i] for i in chosen]
            armed = [debugger.watch(name, action="stop") for name in names]

        def stop(action):
            try:
                reason = action()
            except SimulationLimit:
                reason = "quota"
            watch = debugger.stopped_watch if reason == "watch" else None
            return (reason, watch.name if watch else None,
                    watch.last_value() if watch else None,
                    debugger.cpu.instructions)

        for _ in range(visit["continues"]):
            stops.append(("continue",) + stop(
                lambda: debugger.run(DEFAULT_QUOTA)))
        stops.append(("reverseContinue",) + stop(debugger.reverse_continue))
        answer = debugger.last_write(names[0])
        stops.append(("lastWrite", names[0]) + (
            (True, answer.pc, answer.index, to_signed(answer.new))
            if answer is not None else (False, None, None, None)))
        if visit["continues"] < SESSION_CONTINUES:
            continue
        for watchpoint in armed:
            debugger.unwatch(watchpoint)
        for name in visit["targets"]:
            debugger.watch(name, action="log")
        if debugger.run(DEFAULT_QUOTA) != "exited":
            raise RuntimeError("%s did not run to exit" % visit["program"])
        exit_cycles.append((visit["program"], debugger.cpu.cycles))
    return stops, exit_cycles


WORKLOADS = {"tables": Tables, "watch": Watch, "session": Session}
