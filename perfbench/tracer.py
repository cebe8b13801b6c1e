"""Span tracer for the benchmark's traced runs.

The tracer times the calls into each layer's public functions from the
outside: it rebinds the names callers import (every ``repro.*`` module
attribute that is the original function) or the method on its class,
so no file of the program changes.  Each call becomes a span with a
name, start, end, parent span and operation id.  Spans stay in memory
and are written out once the run ends.

A span opened on a thread with no open span of its own (a server
worker serving the benchmark's request) takes as parent the most
recently opened span still open on any thread.  The benchmark's client
sends one request at a time, so that span is the request's handler or
the request itself, and the span tree stays nested in time: the self
times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

#: layers, named after the program's modules (see NOTES.md)
LAYERS = ["minic", "optimizer", "instrument", "asm", "machine", "core",
          "watchpoints", "debugger", "replay", "server", "store", "eval"]

#: server commands whose handler time is reported one by one
SERVER_COMMANDS = ["launch", "dataBreakpointInfo", "setDataBreakpoints",
                   "continue", "reverseContinue", "lastWrite", "hibernate",
                   "resume", "disconnect"]

#: tags of the program's own code; the simulated cycles of every other
#: tag are check cost
_PROGRAM_TAGS = ("orig", "lib")


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "op", "start", "end")

    def __init__(self, sid, parent, name, layer, op):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.op = op
        self.start = 0.0
        self.end = 0.0


class Tracer:
    """Records spans and counters around the program's layer calls."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open = []
        self._next_sid = 0
        self._parse_texts = set()
        self._block_keys = set()
        self._frozen_sizes = []
        self._watchpoints = []
        self._debuggers = []
        self._stores = []
        self.dedup_ratio = 0.0
        self.root = None

    # -- spans ---------------------------------------------------------------

    def begin(self, name, layer, op=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            if stack:
                parent = stack[-1]
            elif self._open:
                parent = self._open[-1]
            else:
                parent = None
            sid = self._next_sid
            self._next_sid += 1
            if op is None and parent is not None:
                op = parent.op
            span = Span(sid, parent.sid if parent else None, name, layer,
                        op)
            self.spans.append(span)
            self._open.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self._open.remove(span)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, original, name, layer, after=None, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                tracer.counters[count] += 1
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = original
        return traced

    def wrap_function(self, module_name, attr, layer, after=None,
                      count=None):
        """Rebind *module_name.attr* in every ``repro`` module that holds
        it, so callers that imported the name call the wrapper."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self._wrapper(original, "%s.%s" % (layer, attr), layer,
                                after, count)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def wrap_method(self, cls, attr, layer, after=None, count=None,
                    name=None):
        original = cls.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        wrapper = self._wrapper(
            original.__func__ if is_classmethod else original,
            name or "%s.%s.%s" % (layer, cls.__name__, attr), layer, after,
            count)
        setattr(cls, attr, classmethod(wrapper) if is_classmethod
                else wrapper)

    def install(self):
        """Wrap every layer boundary the per-layer metrics read.  A
        module imported later takes the wrapped function from the module
        that defines it."""
        from repro.core.service import MonitoredRegionService
        from repro.debugger.debugger import Debugger
        from repro.machine.cpu import CPU
        from repro.replay.controller import ReplayController
        from repro.replay.recorder import Recorder
        from repro.server.handlers import RequestRouter
        from repro.server.hibernate import HibernationStore
        from repro.server.manager import SessionManager
        from repro.store.store import TraceStore
        from repro.watchpoints.engine import WatchpointEngine

        self.wrap_function("repro.minic.codegen", "compile_source", "minic",
                           count="minic.calls")
        self.wrap_function("repro.optimizer.pipeline", "build_plan",
                           "optimizer", count="optimizer.calls")
        self.wrap_function("repro.instrument.rewriter", "instrument_source",
                           "instrument")
        self.wrap_function("repro.asm.parser", "parse", "asm",
                           after=self._after_parse, count="asm.parse_calls")
        self.wrap_function("repro.asm.assembler", "assemble", "asm")
        self.wrap_function("repro.asm.loader", "load_program", "asm")
        self.wrap_function("repro.machine.blocks", "compile_block",
                           "machine", after=self._after_compile_block)
        for attr in ("run", "run_steps"):
            self._wrap_cpu(CPU, attr)
        for attr in ("create_region", "delete_region"):
            self.wrap_method(MonitoredRegionService, attr, "core",
                             count="core.region_ops")
        # the MRS trap handler is the boundary the CPU calls on a hit
        self.wrap_method(MonitoredRegionService, "_on_hit", "core",
                         count="core.hits", name="core.hit")
        self.wrap_method(WatchpointEngine, "on_hit", "watchpoints")
        for attr in ("for_source", "run", "step", "unwatch", "record"):
            self.wrap_method(Debugger, attr, "debugger",
                             after=self._after_debugger)
        self.wrap_method(Debugger, "watch", "debugger",
                         after=self._after_watch)
        self.wrap_method(Recorder, "resume", "replay")
        for attr in ("reverse_continue", "last_write_to"):
            self.wrap_method(ReplayController, attr, "replay")
        self.wrap_method(RequestRouter, "dispatch", "server",
                         after=self._after_dispatch)
        self.wrap_method(SessionManager, "hibernate", "server")
        self.wrap_method(HibernationStore, "save", "server",
                         after=self._after_save)
        self.wrap_method(HibernationStore, "load", "server")
        self.wrap_function("repro.server.hibernate", "rebuild_managed",
                           "server")
        self.wrap_method(TraceStore, "ingest_recorder", "store")
        self.wrap_method(TraceStore, "ingest", "store",
                         after=self._after_ingest, count="store.ingest_calls")
        for attr in ("measure_table1", "measure_table2"):
            self.wrap_function("repro.eval.%s" % attr.split("_")[1], attr,
                               "eval")

    def _wrap_cpu(self, cls, attr):
        original = cls.__dict__[attr]
        tracer = self
        name = "machine.CPU.%s" % attr

        def traced(cpu, *args, **kwargs):
            before = _cpu_counters(cpu)
            span = tracer.begin(name, "machine")
            try:
                return original(cpu, *args, **kwargs)
            finally:
                tracer.end(span)
                after = _cpu_counters(cpu)
                for key, old, new in zip(_CPU_KEYS, before, after):
                    tracer.counters[key] += new - old

        traced.__wrapped__ = original
        setattr(cls, attr, traced)

    # -- counters at the boundaries ------------------------------------------

    def _after_parse(self, span, args, result):
        if args and isinstance(args[0], str):
            self._parse_texts.add(_digest(args[0].encode()))

    def _after_compile_block(self, span, args, block):
        if block is None:
            return
        self.counters["machine.blocks_compiled"] += 1
        code = block.fn.__code__
        self._block_keys.add(_digest(code.co_code + repr(code.co_consts)
                                     .encode()))

    def _after_debugger(self, span, args, result):
        debugger = result if span.name.endswith("for_source") else args[0]
        if not any(debugger is seen for seen in self._debuggers):
            self._debuggers.append(debugger)

    def _after_watch(self, span, args, watchpoint):
        self._after_debugger(span, args, watchpoint)
        self._watchpoints.append(watchpoint)

    def _after_dispatch(self, span, args, response):
        span.name = "server.%s" % args[1].command

    def _after_save(self, span, args, path):
        self._frozen_sizes.append(os.path.getsize(path))

    def _after_ingest(self, span, args, result):
        store = args[0]
        if not any(store is seen for seen in self._stores):
            self._stores.append(store)

    def snapshot(self):
        """Read the state that dies with its owner (call before a
        trace store closes)."""
        ratios = [store.stats().get("dedup_ratio") or 0.0
                  for store in self._stores]
        self.dedup_ratio = max(ratios) if ratios else 0.0

    # -- results -------------------------------------------------------------

    def measured(self):
        """The spans under the root span (the timed work phase); a
        parent always starts, and is numbered, before its children."""
        kept = set()
        spans = []
        for span in self.spans:
            if span is self.root or span.parent in kept:
                kept.add(span.sid)
                spans.append(span)
        return spans

    def self_times(self, spans):
        """Self time of every span: its duration minus the union of the
        intervals its child spans cover (clipped to the span)."""
        children = defaultdict(list)
        for span in spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = {}
        for span in spans:
            covered = 0.0
            last = span.start
            for child in sorted(children.get(span.sid, ()),
                                key=lambda c: c.start):
                lo = max(child.start, last)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    last = hi
            result[span.sid] = span.end - span.start - covered
        return result

    def metrics(self, wall_s, request_latencies):
        """Every per-layer metric of BENCHMARK.json, by name, except the
        two that need the untraced run (run.py adds them)."""
        spans = self.measured()
        selfs = self.self_times(spans)
        layer_self = {layer: 0.0 for layer in LAYERS}
        other = 0.0
        totals = defaultdict(float)
        handler = defaultdict(list)
        for span in spans:
            if span.layer in layer_self:
                layer_self[span.layer] += selfs[span.sid]
            else:
                other += selfs[span.sid]
            totals[span.name] += span.end - span.start
            if span.layer == "server" and span.name[7:] in SERVER_COMMANDS:
                handler[span.name[7:]].append(span.end - span.start)
        c = self.counters
        m = {}
        for layer in LAYERS:
            m["%s.self_s" % layer] = layer_self[layer]
        m["other_s"] = other
        m["trace.wall_s"] = wall_s
        m["trace.coverage_error_s"] = wall_s - other - sum(
            layer_self.values())
        m["trace.spans"] = len(spans)

        m["minic.compile_s"] = totals["minic.compile_source"]
        m["minic.calls"] = c["minic.calls"]
        m["optimizer.build_plan_s"] = totals["optimizer.build_plan"]
        m["optimizer.calls"] = c["optimizer.calls"]
        m["instrument.rewrite_s"] = totals["instrument.instrument_source"]
        m["asm.parse_s"] = totals["asm.parse"]
        m["asm.parse_calls"] = c["asm.parse_calls"]
        m["asm.parse_distinct"] = len(self._parse_texts)
        m["asm.assemble_s"] = totals["asm.assemble"]
        m["asm.load_s"] = totals["asm.load_program"]

        insns = c["machine.sim_instructions"]
        run_self = sum(selfs[s.sid] for s in spans
                       if s.name.startswith("machine.CPU."))
        m["machine.block_compile_s"] = totals["machine.compile_block"]
        m["machine.blocks_compiled"] = c["machine.blocks_compiled"]
        m["machine.blocks_distinct"] = len(self._block_keys)
        m["machine.invalidations"] = c["machine.invalidations"]
        m["machine.block_runs"] = c["machine.block_runs"]
        m["machine.fast_share"] = (c["machine.fast_retired"] / insns
                                   if insns else 0.0)
        m["machine.run_self_s"] = run_self
        m["machine.host_ns_per_insn"] = (run_self * 1e9 / insns
                                         if insns else 0.0)
        m["machine.sim_instructions"] = insns
        m["machine.sim_cycles"] = c["machine.sim_cycles"]

        m["core.create_region_s"] = totals[
            "core.MonitoredRegionService.create_region"]
        m["core.delete_region_s"] = totals[
            "core.MonitoredRegionService.delete_region"]
        m["core.region_ops"] = c["core.region_ops"]
        m["core.hits"] = c["core.hits"]
        m["core.check_cycles"] = c["core.check_cycles"]

        stats = [wp.stats for wp in self._watchpoints]
        m["watchpoints.on_hit_s"] = totals[
            "watchpoints.WatchpointEngine.on_hit"]
        m["watchpoints.evals"] = sum(s.evals for s in stats)
        m["watchpoints.suppressed"] = sum(s.suppressed for s in stats)
        m["watchpoints.fired"] = sum(s.fired for s in stats)

        m["debugger.watch_s"] = totals["debugger.Debugger.watch"]
        m["debugger.unwatch_s"] = totals["debugger.Debugger.unwatch"]

        recorders = [d.recorder for d in self._debuggers
                     if d.recorder is not None]
        m["replay.keyframes"] = sum(r.stats()["keyframes"]
                                    for r in recorders)
        m["replay.trace_records"] = sum(r.stats()["trace_records"]
                                        for r in recorders)
        m["replay.reverse_s"] = totals[
            "replay.ReplayController.reverse_continue"]
        m["replay.last_write_s"] = totals[
            "replay.ReplayController.last_write_to"]

        handler_s = sum(sum(v) for v in handler.values())
        for command in SERVER_COMMANDS:
            samples = handler.get(command)
            m["server.%s_p50_ms" % command] = (
                statistics.median(samples) * 1e3 if samples else 0.0)
        m["server.handler_s"] = handler_s
        m["server.wait_s"] = (sum(request_latencies) - handler_s
                              if handler_s else 0.0)
        m["server.hibernate_s"] = totals["server.SessionManager.hibernate"]
        m["server.thaw_s"] = (totals["server.HibernationStore.load"]
                              + totals["server.rebuild_managed"])
        m["server.frozen_bytes"] = (statistics.median(self._frozen_sizes)
                                    if self._frozen_sizes else 0.0)

        m["store.ingest_s"] = totals["store.TraceStore.ingest_recorder"]
        m["store.ingest_calls"] = c["store.ingest_calls"]
        m["store.dedup_ratio"] = self.dedup_ratio

        return m

    def dump(self, path):
        """Write the spans out (one list per span)."""
        with open(path, "w") as out:
            json.dump({"fields": ["sid", "parent", "name", "layer", "op",
                                  "start", "end"],
                       "spans": [[s.sid, s.parent, s.name, s.layer, s.op,
                                  s.start, s.end] for s in self.spans]},
                      out)


_CPU_KEYS = ("machine.sim_instructions", "machine.sim_cycles",
             "core.check_cycles", "machine.block_runs",
             "machine.fast_retired", "machine.invalidations")


def _cpu_counters(cpu):
    fast = cpu.fast_stats()
    checks = sum(cycles for tag, cycles in cpu.tag_cycles.items()
                 if tag not in _PROGRAM_TAGS)
    return (cpu.instructions, cpu.cycles, checks, fast["block_runs"],
            fast["fast_retired"], fast["invalidations"])


def _digest(data):
    return hashlib.sha1(data).digest()
