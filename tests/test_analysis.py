"""Tests for repro.analysis: call graph, points-to, value ranges, the
``ipa`` elimination pass with provenance/statistics, and the watchpoint
predicate dependency pruner."""

import pytest

from repro.analysis import _label_layout
from repro.analysis.callgraph import (TRAP_SBRK, build_callgraph,
                                      trap_code)
from repro.analysis.pointsto import HEAP, PointsTo, is_label
from repro.analysis.prune import predicate_invariant
from repro.analysis.ranges import RangeAnalysis
from repro.asm.assembler import assemble
from repro.asm.parser import parse
from repro.eval.analyze import measure_workload
from repro.instrument.plan import ELIM_IPA, ELIM_SYMBOL
from repro.instrument.writes import enumerate_write_sites
from repro.ir.build import apply_promotion, build_ir
from repro.ir.ssa import convert_to_ssa
from repro.minic.codegen import compile_source
from repro.optimizer.asserts import insert_asserts
from repro.optimizer.pipeline import build_plan
from repro.optimizer.symbols import collect_static_symbols


def analyzed(source, lang="C"):
    """Compile and run the full IR pipeline the ipa pass sees."""
    asm = compile_source(source, lang=lang)
    statements = parse(asm)
    enumerate_write_sites(statements, lang)
    symbols = collect_static_symbols(statements)
    funcs, escaped = build_ir(statements, symbols)
    apply_promotion(funcs, escaped)
    ssa_infos = []
    for func in funcs:
        insert_asserts(func)
        info = convert_to_ssa(func)
        if info.order:
            ssa_infos.append(info)
    return asm, statements, symbols, funcs, ssa_infos


INTERPROC = """
int accum;
int table[10];
int *cursor;

int bump(int *dest, int amount) {
    *dest = *dest + amount;
    return *dest;
}

int main() {
    int i;
    cursor = &accum;
    *cursor = 1;
    for (i = 0; i < 10; i = i + 1) { table[i] = bump(cursor, i); }
    print(accum);
    return 0;
}
"""

HEAPY = """
int anchor;
int main() {
    int *block;
    int i;
    block = sbrk(40);
    block[0] = 11;        /* straight-line heap stores: the loop pass */
    block[3] = 22;        /* cannot touch them, so they reach ipa     */
    for (i = 0; i < 10; i = i + 1) { block[i] = block[i] + i; }
    anchor = block[9];
    print(anchor);
    return 0;
}
"""


class TestCallGraph:
    def test_edges_and_sites(self):
        _asm, stmts, _sym, funcs, _ssa = analyzed(INTERPROC)
        graph = build_callgraph(funcs, stmts)
        assert set(graph.funcs) == {"bump", "main"}
        assert "bump" in graph.callees["main"]
        assert all(site.caller == "main"
                   for site in graph.callers["bump"])
        assert graph.is_defined("bump")
        assert not graph.is_defined("printf")

    def test_sbrk_is_a_trap_not_a_call(self):
        _asm, stmts, _sym, funcs, _ssa = analyzed(HEAPY)
        graph = build_callgraph(funcs, stmts)
        assert graph.callers.get("sbrk") is None
        traps = [trap_code(op, stmts)
                 for func in funcs
                 for block in func.reachable_blocks()
                 for op in block.ops if op.kind == "trap"]
        assert TRAP_SBRK in traps


class TestPointsTo:
    def _solved(self, source):
        _asm, stmts, _sym, funcs, ssa = analyzed(source)
        graph = build_callgraph(funcs, stmts)
        pt = PointsTo(stmts, funcs, graph, ssa)
        pt.run()
        return stmts, funcs, pt

    def _stores(self, funcs):
        return [access.op for func in funcs for access in func.accesses
                if access.kind == "st" and access.op.kind == "st"
                and access.op.site is not None]

    def test_pointer_through_call_resolves_to_label(self):
        stmts, funcs, pt = self._solved(INTERPROC)
        atom_sets = [pt.store_atoms(op) for op in self._stores(funcs)]
        # some store (the *dest in bump, via cursor=&accum) is proven
        # to stay within the G_accum label
        assert any(atoms and all(is_label(a) for a in atoms)
                   for atoms in atom_sets)

    def test_sbrk_result_is_heap(self):
        stmts, funcs, pt = self._solved(HEAPY)
        atom_sets = [pt.store_atoms(op) for op in self._stores(funcs)]
        assert any(HEAP in atoms for atoms in atom_sets)


class TestRanges:
    def test_monotonic_index_is_bounded_below(self):
        source = """
        int a[16];
        int main() {
            int i;
            for (i = 0; i < 16; i = i + 1) { a[i] = i; }
            print(a[15]);
            return 0;
        }
        """
        _asm, stmts, _sym, funcs, ssa = analyzed(source)
        graph = build_callgraph(funcs, stmts)
        ranges = RangeAnalysis(stmts, funcs, graph, ssa)
        ranges.run()
        offsets = []
        for func in funcs:
            for access in func.accesses:
                if access.kind == "st" and access.op.kind == "st" \
                        and access.op.site is not None:
                    offsets.append(ranges.store_offset(access.op))
        syms = [off for off in offsets
                if off is not None and off[0] == "sym"]
        assert syms, "no store offset resolved to label+interval"
        assert any(off[2] is not None and off[2] >= 0 for off in syms)


class TestIpaPass:
    def test_ipa_eliminates_more_than_full(self):
        asm = compile_source(INTERPROC)
        _stmts, full_plan = build_plan(asm, mode="full")
        _stmts, ipa_plan = build_plan(asm, mode="ipa")
        assert len(ipa_plan.eliminate) > len(full_plan.eliminate)
        assert ELIM_IPA in ipa_plan.eliminate.values()

    def test_ipa_dominates_full_on_workloads(self):
        # the three workloads ipa wins on plus gcc, whose heap stores
        # it must refuse
        wins = []
        for name in ["022.li", "015.doduc", "013.spice2g6",
                     "001.gcc1.35"]:
            row = measure_workload(name, 0.2)
            assert row["ipa"] + 1e-9 >= row["full"], (name, row)
            if row["ipa_static"] > row["full_static"]:
                wins.append(name)
        assert len(wins) >= 2, wins

    def test_every_ipa_site_has_provenance_and_registration(self):
        asm = compile_source(INTERPROC)
        _stmts, plan = build_plan(asm, mode="ipa")
        registered = {site for sites in plan.symbol_sites.values()
                      for site in sites}
        # loop-eliminated sites re-insert through pre-header guards
        registered |= {site for sites in plan.loop_sites.values()
                       for site in sites}
        for site, kind in plan.eliminate.items():
            assert site in plan.why_eliminated
            assert site in registered, \
                "eliminated site %d not re-insertable" % site
            if kind == ELIM_IPA:
                assert plan.why_eliminated[site].startswith("ipa:")
            if kind == ELIM_SYMBOL:
                assert plan.why_eliminated[site].startswith("symbol:")

    def test_heap_stores_refused(self):
        asm = compile_source(HEAPY)
        _stmts, plan = build_plan(asm, mode="ipa")
        stats = plan.pass_stats["ipa"]
        assert stats.guarded >= 1  # the block[i] scatter into sbrk space
        # no heap-going store may be ipa-eliminated
        for site, kind in plan.eliminate.items():
            if kind == ELIM_IPA:
                fact = plan.write_facts.get(site)
                assert fact is not None
                assert all(item[0] == "entry" for item in fact)

    def test_adversarial_alias_mix_refused(self):
        # one routine fills both a global array and a heap block: the
        # shared store must be refused (its target set is not
        # label-only), never eliminated by ipa
        source = """
        int table[8];
        int poke(int *dest, int k) {
            dest[k % 8] = k;   /* straight-line: reaches the ipa pass */
            return k;
        }
        int main() {
            int *heap;
            poke(table, 3);
            heap = sbrk(32);
            poke(heap, 5);
            print(table[3]);
            return 0;
        }
        """
        asm = compile_source(source)
        _stmts, plan = build_plan(asm, mode="ipa")
        stats = plan.pass_stats["ipa"]
        assert stats.guarded >= 1
        for site, kind in plan.eliminate.items():
            assert kind != ELIM_IPA or \
                "heap" not in (plan.why_eliminated.get(site) or "")

    def test_pass_stats_reset_between_builds(self):
        asm = compile_source(INTERPROC)
        _stmts, plan1 = build_plan(asm, mode="ipa")
        first = {name: stats.as_dict()
                 for name, stats in plan1.pass_stats.items()}
        _stmts, plan2 = build_plan(asm, mode="ipa")
        second = {name: stats.as_dict()
                  for name, stats in plan2.pass_stats.items()}
        assert first == second  # fresh plan, fresh counters, same input
        assert plan2.pass_stats["symbol"].seen > 0

    def test_label_order_matches_assembled_addresses(self):
        asm = compile_source(INTERPROC)
        statements = parse(asm)
        symbols = collect_static_symbols(statements)
        _extent, order = _label_layout(symbols)
        program = assemble(asm)
        addresses = {}
        for label in order:
            entries = symbols.globals_by_label[label]
            entry = program.symtab.lookup(entries[0].name)
            addresses[label] = entry.address - entries[0].label_offset
        ranked = sorted(order, key=order.get)
        assert ranked == sorted(addresses, key=addresses.get)

    def test_write_facts_cover_all_store_sites(self):
        asm = compile_source(INTERPROC)
        statements, plan = build_plan(asm, mode="ipa")
        sites = enumerate_write_sites(parse(asm))
        assert set(plan.write_facts) == {s.site for s in sites}


class TestPredicateDependencies:
    def _symtab(self, source):
        return assemble(compile_source(source)).symtab

    def test_reads_recorded_for_globals(self):
        from repro.watchpoints.predicate import compile_predicate
        symtab = self._symtab(INTERPROC)
        pred = compile_predicate("accum > 3 && table[2] != 0",
                                 symtab=symtab)
        assert len(pred.reads) == 2
        assert not pred.dynamic_reads and not pred.uses_hit

    def test_computed_index_reads_whole_array(self):
        from repro.watchpoints.predicate import compile_predicate
        symtab = self._symtab(INTERPROC)
        pred = compile_predicate("table[accum % 10] > 0", symtab=symtab)
        table = symtab.lookup("table")
        assert (table.address, table.size) in pred.reads

    def test_hit_specials_and_derefs_flagged(self):
        from repro.watchpoints.predicate import compile_predicate
        symtab = self._symtab(INTERPROC)
        assert compile_predicate("$addr != 0", symtab=symtab).uses_hit
        assert compile_predicate("*(cursor) > 0",
                                 symtab=symtab).dynamic_reads

    def test_invariant_verdicts(self):
        from repro.watchpoints.predicate import compile_predicate
        source = """
        int a[8];
        int written;
        int untouched;
        int main() {
            int i;
            written = 2;
            for (i = 0; i < 8; i = i + 1) { a[i] = i; }
            print(a[7]);
            return 0;
        }
        """
        asm = compile_source(source)
        statements, plan = build_plan(asm, mode="ipa")
        symtab = assemble(asm).symtab
        inert = compile_predicate("untouched == 0", symtab=symtab)
        hot = compile_predicate("written == 2", symtab=symtab)
        hit = compile_predicate("untouched == 0 && $value > 1",
                                symtab=symtab)
        assert predicate_invariant(inert, plan, symtab)
        assert not predicate_invariant(hot, plan, symtab)
        assert not predicate_invariant(hit, plan, symtab)

    def test_engine_prunes_and_still_fires(self):
        from repro.debugger.debugger import Debugger
        source = """
        int a[8];
        int quiet;
        int main() {
            int i;
            for (i = 0; i < 8; i = i + 1) { a[i] = i * 2; }
            print(a[7]);
            return 0;
        }
        """
        dbg = Debugger.for_source(source, optimize="ipa")
        true_wp = dbg.watch("a[3]", expr="quiet == 0")
        false_wp = dbg.watch("a[4]", expr="quiet != 0")
        dbg.run()
        assert true_wp.invariant and false_wp.invariant
        assert true_wp.stats.pruned == 1 and true_wp.stats.evals == 0
        assert len(true_wp.hits) == 1  # cached-true still fires
        assert false_wp.stats.pruned == 1 and not false_wp.hits

    def test_no_pruning_without_facts(self):
        from repro.debugger.debugger import Debugger
        source = """
        int a[8];
        int quiet;
        int main() {
            int i;
            for (i = 0; i < 8; i = i + 1) { a[i] = i; }
            print(a[7]);
            return 0;
        }
        """
        dbg = Debugger.for_source(source, optimize="full")
        wp = dbg.watch("a[3]", expr="quiet == 0")
        dbg.run()
        assert not wp.invariant
        assert wp.stats.pruned == 0 and wp.stats.evals == 1


class TestModeErrors:
    def test_structured_mode_error(self):
        from repro.errors import OptimizeModeError, ReproError
        with pytest.raises(OptimizeModeError) as excinfo:
            build_plan(compile_source(HEAPY), mode="hyper")
        err = excinfo.value
        assert isinstance(err, ReproError)
        assert isinstance(err, ValueError)
        assert err.mode == "hyper"
        assert err.valid == ("sym", "full", "ipa")
