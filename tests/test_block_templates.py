"""Shared block templates (repro.machine.blocks, DESIGN.md §14).

A compiled block is a template — the code object of its generated
``_blk`` function, held in one process-wide table keyed by a digest of
the generated source — plus the block's own program literals, bound as
parameter defaults.  These tests check that runs really share
templates, that everything the template text depends on (cost model,
cache geometry) keeps templates apart, and that every fast run stays
bit-exact with the per-step loop however templates are shared, flushed
or raced for.
"""

import sys
import threading

import pytest

from repro.asm.assembler import DEFAULT_TEXT_BASE, assemble
from repro.asm.loader import load_program
from repro.eval.overhead import WorkloadBench
from repro.machine import blocks
from repro.machine.costs import DEFAULT_COSTS
from repro.minic.codegen import compile_source
from repro.workloads import WORKLOADS, workload_source
from test_fastpath import cpu_state

WORKLOAD = "030.matrix300"
SCALE = 0.1


@pytest.fixture
def empty_table(monkeypatch):
    """Start from an empty template table, on the fast path."""
    monkeypatch.delenv("REPRO_FAST_PATH", raising=False)
    blocks._TEMPLATES.clear()
    yield blocks._TEMPLATES
    blocks._TEMPLATES.clear()


@pytest.fixture(scope="module")
def asm():
    return compile_source(workload_source(WORKLOAD, SCALE),
                          lang=WORKLOADS[WORKLOAD].lang)


def run(asm_source, fast, text_base=DEFAULT_TEXT_BASE, **load_args):
    loaded = load_program(assemble(asm_source, text_base=text_base),
                          fast_path=fast, **load_args)
    assert loaded.run() == 0
    return loaded


def assert_exact(asm_source, **load_args):
    """Run fast and slow; the fast run must equal the slow one field by
    field and must really have used blocks.  Returns its stats."""
    fast = run(asm_source, True, **load_args)
    slow = run(asm_source, False, **load_args)
    assert fast.output == slow.output
    expected = cpu_state(slow.cpu)
    got = cpu_state(fast.cpu)
    for field in expected:
        assert got[field] == expected[field], field
    stats = fast.cpu.fast_stats()
    assert stats["block_runs"] > 0
    return stats


class TestSharing:
    def test_second_strategy_reuses_templates(self, empty_table):
        bench = WorkloadBench(WORKLOAD, scale=SCALE)
        first = bench.run_instrumented("Bitmap").session.cpu.fast_stats()
        assert first["compiles"] > 0
        second = bench.run_instrumented("Cache").session.cpu.fast_stats()
        assert second["decodes"] > 0
        assert second["compiles"] < second["decodes"] / 2, second

    def test_stats_count_compiles(self, empty_table, asm):
        stats = run(asm, True).cpu.fast_stats()
        assert 0 < stats["compiles"] <= stats["decodes"]
        assert len(empty_table) == stats["compiles"]
        again = run(asm, True).cpu.fast_stats()
        assert again["decodes"] == stats["decodes"]
        assert again["compiles"] == 0

    def test_slow_cpu_reports_zero_compiles(self, asm):
        assert run(asm, False).cpu.fast_stats()["compiles"] == 0


class TestKeyIsolation:
    def test_costs_and_cache_geometry_keep_templates_apart(
            self, empty_table, asm):
        # one process, one table: each configuration must compile its
        # own templates wherever a cost or the cache mask shows in the
        # generated text, or a fast run charges the wrong cycles
        for load_args in ({"costs": DEFAULT_COSTS},
                          {"costs": DEFAULT_COSTS.copy(load_extra=5,
                                                       imiss_penalty=3)},
                          {"cache_bytes": 4096}):
            stats = assert_exact(asm, **load_args)
            assert stats["compiles"] > 0, load_args


class TestRelocation:
    def test_relocated_program_shares_templates(self, empty_table, asm):
        first = assert_exact(asm)
        moved = assert_exact(asm, text_base=DEFAULT_TEXT_BASE + 0x1000)
        assert first["compiles"] > 0
        assert moved["compiles"] == 0, moved
        # the fast runs above ran in that order; the moved one found
        # every template it needed, bound to its own pcs
        assert moved["decodes"] == first["decodes"]


class TestCap:
    def test_table_flushes_at_the_cap_and_stays_exact(
            self, empty_table, asm, monkeypatch):
        monkeypatch.setattr(blocks, "TEMPLATE_CAP", 8)
        stats = assert_exact(asm)
        assert len(empty_table) <= 8
        # more templates compiled than the table can hold: it flushed
        assert stats["compiles"] > 8


class TestThreads:
    def test_threads_race_for_templates(self, empty_table):
        name = "022.li"
        asm = compile_source(workload_source(name, SCALE),
                             lang=WORKLOADS[name].lang)
        expected = cpu_state(run(asm, False).cpu)
        # more threads than a small CI runner has cores
        results = [None] * 3

        def worker(slot):
            try:
                results[slot] = cpu_state(run(asm, True).cpu)
            except BaseException as exc:  # reported by the main thread
                results[slot] = exc

        threads = [threading.Thread(target=worker, args=(slot,))
                   for slot in range(len(results))]
        blocks._TEMPLATES.clear()
        # switch threads often, so they compile and bind concurrently
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert not isinstance(result, BaseException), result
            assert result == expected


class TestRunStats:
    def test_run_stats_prints_one_fast_path_line(self, tmp_path, capsys):
        from repro.cli import main
        source = tmp_path / "prog.c"
        source.write_text("int total;\nint main() {\n    register int i;\n"
                          "    total = 0;\n"
                          "    for (i = 0; i < 5; i = i + 1) "
                          "{ total = total + i; }\n"
                          "    print(total);\n    return 0;\n}\n")
        assert main(["run", str(source), "--stats"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if "fast path:" in line]
        assert len(lines) == 1
        for word in ("block runs", "decodes", "compiles", "invalidations"):
            assert word in lines[0]
