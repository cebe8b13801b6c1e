"""Differential tests: block fast path vs the per-step interpreter.

The fast path (repro.machine.blocks) must be *bit-exact* with the slow
loop — same architectural state, same cost-model counters, same
recorded trace bytes, same monitor hit sequences — because replay
digests and Table 1 numbers are computed from them.  Every test here
runs the same program under both engines and compares everything
observable.  Several tests also assert ``block_runs > 0`` so a
regression that silently de-opts everything (trivially "equal") fails.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm.assembler import assemble
from repro.asm.loader import load_program, run_source
from repro.debugger import Debugger
from repro.isa.instructions import NopInsn
from repro.machine.cpu import SimulationLimit, Watchdog
from repro.minic.codegen import compile_source
from repro.replay import state_digest
from repro.workloads import WORKLOADS, workload_source

WORKLOAD_NAMES = ["023.eqntott", "030.matrix300", "008.espresso",
                  "022.li", "042.fpppp"]

#: the fast path must beat the per-step loop by SPEEDUP_FLOOR on at
#: least SPEEDUP_MIN_WORKLOADS of these at SPEEDUP_SCALE (measured
#: about 3-3.7x on li and fpppp; the floor leaves room for a loaded
#: host)
SPEEDUP_WORKLOADS = ["023.eqntott", "030.matrix300", "022.li",
                     "042.fpppp"]
SPEEDUP_SCALE = 0.4
SPEEDUP_FLOOR = 2.0
SPEEDUP_MIN_WORKLOADS = 2


def cpu_state(cpu):
    """Everything observable about a finished (or paused) CPU."""
    regs = cpu.regs
    return {
        "pc": cpu.pc, "npc": cpu.npc,
        "icc": (cpu.icc_n, cpu.icc_z, cpu.icc_v, cpu.icc_c),
        "digest": state_digest(cpu),
        "cycles": cpu.cycles, "instructions": cpu.instructions,
        "loads": cpu.loads, "stores": cpu.stores,
        "traps": cpu.traps_taken,
        "tag_counts": dict(cpu.tag_counts),
        "tag_cycles": dict(cpu.tag_cycles),
        "cache": (cpu.cache.hits, cpu.cache.misses),
        "globals": list(regs.globals),
        "memory": sorted(cpu.mem.words.items()),
        "depth": (cpu._window_depth, cpu.max_window_depth),
        "exit": (cpu.running, cpu.exit_code),
    }


def run_workload(name, scale, fast):
    spec = WORKLOADS[name]
    asm = compile_source(workload_source(name, scale), lang=spec.lang)
    loaded = load_program(assemble(asm), fast_path=fast)
    code = loaded.run()
    return code, loaded


def timed_run(asm, fast):
    """Host seconds of one run to exit (load and assembly untimed)."""
    loaded = load_program(assemble(asm), fast_path=fast)
    begin = time.perf_counter()
    assert loaded.run() == 0
    return time.perf_counter() - begin


class TestUninstrumentedParity:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_state_is_bit_exact(self, name):
        code_slow, slow = run_workload(name, 0.1, fast=False)
        code_fast, fast = run_workload(name, 0.1, fast=True)
        assert code_fast == code_slow
        assert fast.output == slow.output
        assert cpu_state(fast.cpu) == cpu_state(slow.cpu)
        # guard against a trivially-passing always-de-opt fast path
        stats = fast.cpu.fast_stats()
        assert stats["block_runs"] > 0
        assert stats["fast_retired"] > 0
        assert slow.cpu.fast_stats()["block_runs"] == 0

    def test_division_by_zero_faults_identically(self):
        body = "mov 1, %o0\n sdiv %o0, 0, %o0"
        states = []
        for fast in (False, True):
            source = ("\t.text\n\t.proc main\nmain:\n"
                      "\tsave %sp, -96, %sp\n\t" + body.replace("\n", "\n\t")
                      + "\n\tmov 0, %i0\n\tret\n\trestore\n\t.endproc\n")
            loaded = load_program(assemble(source), fast_path=fast)
            with pytest.raises(ZeroDivisionError):
                loaded.run()
            states.append(cpu_state(loaded.cpu))
        assert states[0] == states[1]

    def test_env_var_opt_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_PATH", "0")
        _code, _out, cpu = run_source(
            "\t.text\n\t.proc main\nmain:\n\tmov 0, %o0\n\tta 1\n"
            "\tmov 0, %o0\n\tta 0\n\t.endproc\n")
        assert not cpu.fast_path
        assert cpu.fast_stats()["block_runs"] == 0


class TestSpeedupFloor:
    def test_fast_path_clears_the_floor(self):
        # the fast run takes the CPU default engine, so disabling the
        # fast path (REPRO_FAST_PATH=0) collapses every speedup to ~1x
        speedups = {}
        for name in SPEEDUP_WORKLOADS:
            spec = WORKLOADS[name]
            asm = compile_source(workload_source(name, SPEEDUP_SCALE),
                                 lang=spec.lang)
            timed_run(asm, fast=None)  # warm-up
            plain_s = timed_run(asm, fast=False)
            speedups[name] = round(plain_s / timed_run(asm, fast=None), 2)
        above = [name for name, speedup in speedups.items()
                 if speedup >= SPEEDUP_FLOOR]
        assert len(above) >= SPEEDUP_MIN_WORKLOADS, speedups


class TestWatchdogParity:
    def test_insn_budget_trips_on_the_same_boundary(self):
        results = []
        for fast in (False, True):
            spec = WORKLOADS["030.matrix300"]
            asm = compile_source(workload_source("030.matrix300", 0.1),
                                 lang=spec.lang)
            loaded = load_program(assemble(asm), fast_path=fast)
            watchdog = Watchdog(max_instructions=3000)
            with pytest.raises(SimulationLimit):
                loaded.run(watchdog=watchdog)
            results.append(cpu_state(loaded.cpu))
        # the budget boundary is exact: both engines pause after
        # precisely the same retired instruction
        assert results[0]["instructions"] == results[1]["instructions"]
        assert results[0] == results[1]

    def test_run_steps_chunks_are_exact(self):
        states = []
        for fast in (False, True):
            spec = WORKLOADS["023.eqntott"]
            asm = compile_source(workload_source("023.eqntott", 0.1),
                                 lang=spec.lang)
            loaded = load_program(assemble(asm), fast_path=fast)
            cpu = loaded.cpu
            cpu.pc, cpu.npc = loaded.entry, loaded.entry + 4
            trail = []
            for chunk in (1, 7, 64, 1, 913, 3, 256):
                cpu.run_steps(chunk)
                trail.append(cpu_state(cpu))
            states.append(trail)
        assert states[0] == states[1]


class TestInvalidation:
    def test_patch_flushes_compiled_blocks(self):
        # a self-looping counter: run some iterations fast, patch an
        # instruction inside the hot block, and both engines must see
        # the new code on the next pass
        source = """
        int total;
        int main() {
            register int i;
            for (i = 0; i < 200; i = i + 1) total = total + 3;
            print(total);
            return 0;
        }
        """
        finals = []
        for fast in (False, True):
            loaded = load_program(assemble(compile_source(source)),
                                  fast_path=fast)
            cpu = loaded.cpu
            cpu.pc, cpu.npc = loaded.entry, loaded.entry + 4
            cpu.run_steps(300)            # warm the block cache mid-loop
            # neuter one store-feeding add by patching it to a nop
            target = None
            for offset in range(len(cpu.code.insns)):
                insn = cpu.code.insns[offset]
                if type(insn).__name__ == "ArithInsn" and \
                        insn.op == "add" and insn.op2.is_imm and \
                        insn.op2.value == 3:
                    target = cpu.code.base + offset * 4
            assert target is not None
            replacement = NopInsn()
            replacement.tag = "orig"
            cpu.code.patch(target, replacement)
            cpu.run_steps(10 ** 9)        # run to completion
            finals.append((loaded.output, cpu_state(cpu)))
            if fast:
                assert cpu.fast_stats()["invalidations"] >= 1
                assert cpu.fast_stats()["block_runs"] > 0
        assert finals[0] == finals[1]


SEEDED_SOURCE = """
int cells[16];
int state;
int step() {
    state = (state * 69069 + 12345) % 2048;
    cells[state % 16] = state + cells[(state + 5) % 16] / 3;
    return state;
}
int main() {
    register int i;
    state = SEED;
    for (i = 0; i < 14; i = i + 1) step();
    print(state);
    return 0;
}
"""


def record_seeded(seed, stride, fast):
    source = SEEDED_SOURCE.replace("SEED", str(seed % 2048))
    debugger = Debugger.for_source(source, optimize="full",
                                   fast_path=fast)
    watch_state = debugger.watch("state", action="log")
    watch_cells = debugger.watch("cells", action="log")
    recorder = debugger.record(stride=stride)
    reason = debugger.run()
    while reason != "exited":
        reason = debugger.run()
    return debugger, recorder, (watch_state, watch_cells)


class TestRecordedParity:
    @given(seed=st.integers(min_value=0, max_value=2 ** 31),
           stride=st.integers(min_value=40, max_value=500))
    @settings(max_examples=8, deadline=None)
    def test_seeded_recordings_are_byte_identical(self, seed, stride):
        slow = record_seeded(seed, stride, fast=False)
        fast = record_seeded(seed, stride, fast=True)
        # recorded trace bytes and digests
        assert fast[1].trace.to_bytes() == slow[1].trace.to_bytes()
        assert fast[1].trace.digest() == slow[1].trace.digest()
        # keyframe schedule and state digests
        assert ([(frame.index, frame.digest)
                 for frame in fast[1].keyframes] ==
                [(frame.index, frame.digest)
                 for frame in slow[1].keyframes])
        # monitor hit sequences, watchpoint by watchpoint
        for fast_wp, slow_wp in zip(fast[2], slow[2]):
            assert fast_wp.hits == slow_wp.hits
        # machine state
        assert cpu_state(fast[0].cpu) == cpu_state(slow[0].cpu)
        assert fast[0].output == slow[0].output

    def test_fast_recording_replays_backwards(self):
        # the recording made in fast mode must satisfy the replay
        # engine's divergence verification (replay re-executes with
        # whatever engine the session uses)
        debugger, recorder, watches = record_seeded(7, 120, fast=True)
        hits_before = list(watches[0].hits)
        assert hits_before
        reason = debugger.reverse_continue()
        assert reason.startswith("watch") or reason == "start"
        _entry, _addr, value = debugger.evaluate("state")
        assert value == hits_before[-1][2]
