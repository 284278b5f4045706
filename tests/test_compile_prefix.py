"""The kept compile prefix: lowering and the query-free passes run once
per session, and every compile starts from a copy of their result.

These are the referees for that split: the prefix issues no alias
query, a copy is a faithful and isolated twin of the kept module, the
kept module survives a whole session unchanged, a compile from a warm
:class:`Compiler` reports exactly what a fresh one does, and the kept
module is freed by reference counting.
"""

import dataclasses
import gc
from functools import partial

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.analysis import DEFAULT_AA_CHAIN
from repro.analysis.aliasing import AAResults
from repro.frontend import compile_source
from repro.fuzz.oracle import RefereeCompiler
from repro.ir import Constant, print_module, verify_module
from repro.ir.basicblock import BasicBlock
from repro.ir.clone import clone_module
from repro.ir.uselist import UseList
from repro.ir.values import Value
from repro.oraql.compiler import Compiler
from repro.oraql.driver import ProbingDriver
from repro.oraql.override import OraqlOverridePass
from repro.oraql.pass_ import DumpFlags
from repro.oraql.sequence import DecisionSequence
from repro.passes import (
    CompilationContext,
    PassManager,
    SimplifyCFG,
    build_pipeline,
    split_prefix,
)
from repro.workloads.base import get_config, row_names

from test_oraql_bugfixes import two_tu_config


def _lowered(cfg):
    """The row's sources lowered and linked, as the compiler's LTO path
    hands them to the pipeline."""
    modules = [compile_source(s.text, s.name) for s in cfg.sources]
    main = modules[0]
    for other in modules[1:]:
        main.link(other)
    verify_module(main)
    return main


def _values(module):
    """Every value a compile can reach, in a structural order two
    equal modules share: globals, then per function its arguments,
    blocks and instructions, then the constants they use."""
    out = list(module.globals.values())
    constants = {}
    for gv in module.globals.values():
        if gv.initializer is not None:
            constants[gv.initializer] = None
    for fn in module.functions.values():
        out.append(fn)
        out += fn.args
        for bb in fn.blocks:
            out.append(bb)
            for inst in bb.instructions:
                out.append(inst)
                for op in inst.operands:
                    if isinstance(op, Constant):
                        constants[op] = None
    return out + list(constants)


def _kept(compiler):
    (kept,) = compiler._kept.values()
    return kept.module


# -- the split ---------------------------------------------------------------

def test_the_split_is_before_the_first_query_issuer():
    prefix, rest = split_prefix(build_pipeline(3))
    assert [p.name for p in prefix] == [
        "simplifycfg", "mem2reg", "instcombine", "simplifycfg"]
    assert rest[0].name == "early-cse"
    assert split_prefix(build_pipeline(0)) == ([], [])


@pytest.mark.parametrize("row", row_names())
def test_prefix_issues_no_alias_query(monkeypatch, row):
    """With the full AA chain in place, no pass before the split calls
    ``AAResults.alias`` or ``get_mod_ref``."""
    calls = []
    for name in ("alias", "get_mod_ref"):
        real = getattr(AAResults, name)

        def recording(self, *args, _real=real, _name=name):
            calls.append((_name, self.current_pass))
            return _real(self, *args)

        monkeypatch.setattr(AAResults, name, recording)
    cfg = get_config(row)
    module = _lowered(cfg)
    prefix, rest = split_prefix(build_pipeline(cfg.opt_level))
    ctx = CompilationContext(module, aa_chain=DEFAULT_AA_CHAIN)
    PassManager(ctx).run(prefix)
    assert calls == []
    PassManager(ctx).run(rest)
    assert calls  # the recorder sees the queries after the split


# -- the copy ----------------------------------------------------------------

@pytest.mark.parametrize("row", ["XSBench-seq", "LULESH-mpi",
                                 "Quicksilver-openmp"])
def test_copy_is_an_isolated_twin(row):
    compiler = Compiler()
    compiler.compile(get_config(row))
    kept = _kept(compiler)
    copy = clone_module(kept)
    assert print_module(copy) == print_module(kept)
    originals, copies = _values(kept), _values(copy)
    assert len(originals) == len(copies)
    assert not {id(v) for v in originals} & {id(c) for c in copies}
    twin = dict(zip(originals, copies))
    for v, c in twin.items():
        assert type(c) is type(v) and c.name == v.name
        # use-lists in the original's order, all inside the copy
        assert list(c.users) == [twin[u] for u in v.users]
    # ids in the originals' creation order
    by_id = sorted(originals, key=lambda v: v.id)
    ids = [twin[v].id for v in by_id]
    assert ids == sorted(ids)
    assert min(ids) > max(v.id for v in originals)


def test_kept_module_survives_a_session_unchanged():
    """A full XSBench-seq session runs every compile on a copy: the kept
    module prints the same afterwards, and no value of it has a user
    outside it."""
    compiler = Compiler()
    cfg = get_config("XSBench-seq")
    compiler.compile(cfg)
    kept = _kept(compiler)
    before = print_module(kept)
    report = ProbingDriver(cfg, compiler=compiler).run()
    assert report.tests_run > 3
    assert _kept(compiler) is kept
    assert print_module(kept) == before
    inside = set(_values(kept))
    for v in inside:
        assert all(u in inside for u in v.users), v
        assert all(op in inside for op in getattr(v, "operands", ()))


# -- what each program carries ----------------------------------------------

DUMP = DumpFlags(first=True, cached=True, optimistic=True, pessimistic=True)

#: setting -> (row, compiler factory, compile options)
SETTINGS = {
    "dump": ("XSBench-seq", Compiler, dict(oraql_enabled=True, dump=DUMP)),
    "debug-pass-executions": ("XSBench-seq", Compiler,
                              dict(debug_pass_executions=True)),
    "coarse": ("LULESH-mpi", RefereeCompiler, dict(oraql_enabled=True)),
    "verify-analyses": ("LULESH-mpi",
                        partial(Compiler, verify_analyses=True),
                        dict(oraql_enabled=True)),
    "non-lto": (None, Compiler, dict(oraql_enabled=True, dump=DUMP)),
}


@pytest.mark.parametrize("setting", SETTINGS)
def test_warm_compile_reports_what_a_fresh_one_does(setting):
    row, make, kwargs = SETTINGS[setting]
    cfg = get_config(row) if row is not None else two_tu_config(False)

    def compile_(compiler):
        if kwargs.get("oraql_enabled"):
            return compiler.compile(cfg, sequence=DecisionSequence(),
                                    **kwargs)
        return compiler.compile(cfg, **kwargs)

    warm = make()
    compile_(warm)
    first = compile_(warm)
    fresh = compile_(make())
    assert first.exe_hash == fresh.exe_hash
    assert first.stats.rows() == fresh.stats.rows()
    assert first.ctx.debug_log == fresh.ctx.debug_log
    if setting in ("dump", "debug-pass-executions", "non-lto"):
        assert any(line.startswith("Executing Pass 'Promote Memory")
                   for line in first.ctx.debug_log)
    # the prefix's work counts once, for the compile that ran it
    assert first.pass_executions < fresh.pass_executions


def test_announcements_follow_the_compile_not_the_prefix():
    """The compile that builds the prefix does not announce; the next one
    does, and carries the prefix's announcements first."""
    compiler = Compiler()
    cfg = get_config("TestSNAP-seq")
    quiet = compiler.compile(cfg)
    loud = compiler.compile(cfg, debug_pass_executions=True)
    assert quiet.ctx.debug_log == []
    assert loud.ctx.debug_log[0].startswith("Executing Pass 'Simplify")
    assert loud.ctx.debug_log == Compiler().compile(
        cfg, debug_pass_executions=True).ctx.debug_log


def test_traced_compiles_share_the_prefix():
    """A traced compile starts from the kept module like any other; the
    prefix's spans (lowering, the query-free passes) belong to the
    compile that ran them."""
    from repro.trace import QueryTrace

    def spans(trace):
        def walk(node, depth):
            for child in node["children"]:
                yield depth, child["name"], child["count"]
                yield from walk(child, depth + 1)
        return {(d, name): n for d, name, n in walk(trace.timer.to_dict(), 0)}

    compiler = Compiler()
    cfg = get_config("TestSNAP-seq")
    built_trace, warm_trace = QueryTrace(), QueryTrace()
    built = compiler.compile(cfg, trace=built_trace)
    warm = compiler.compile(cfg, trace=warm_trace)
    assert built.exe_hash == warm.exe_hash == Compiler().compile(cfg).exe_hash
    assert built_trace.records == warm_trace.records  # the stats records
    built_spans, warm_spans = spans(built_trace), spans(warm_trace)
    assert built_spans[0, "frontend"] == 1
    assert (0, "frontend") not in warm_spans
    assert (1, "Promote Memory to Register") not in warm_spans
    assert built_spans[0, "passes"] == warm_spans[0, "passes"] == 1
    assert built_spans[1, "Early CSE"] == warm_spans[1, "Early CSE"]


def test_settings_that_change_the_prefix_key_it():
    """The kept prefix is keyed by (unit sources, opt level): compile
    options leave it alone, and every other setting belongs to the
    Compiler."""
    compiler = Compiler()
    cfg = get_config("TestSNAP-seq")
    compiler.compile(cfg)
    compiler.compile(cfg, debug_pass_executions=True,
                     oraql_enabled=True, dump=DUMP)
    compiler.compile(cfg, override=OraqlOverridePass())
    assert len(compiler._kept) == 1
    compiler.compile(dataclasses.replace(cfg, opt_level=2))
    compiler.compile(cfg)
    assert sorted(level for _, level in compiler._kept) == [2, 3]


# -- errors ------------------------------------------------------------------

def test_a_failing_prefix_is_not_kept(monkeypatch):
    compiler = Compiler()
    cfg = get_config("TestSNAP-seq")

    def failing(self, fn, ctx):
        raise RuntimeError("simplifycfg broke")

    monkeypatch.setattr(SimplifyCFG, "run_on_function", failing)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="simplifycfg broke"):
            compiler.compile(cfg)
        assert compiler._kept == {}
    monkeypatch.undo()
    assert compiler.compile(cfg).exe_hash == Compiler().compile(cfg).exe_hash


def test_a_frontend_error_is_raised_by_every_compile():
    from repro.frontend import CodegenError
    from repro.oraql.config import BenchmarkConfig, SourceFile

    cfg = BenchmarkConfig(name="broken", sources=[
        SourceFile("b.c", "int main() { return undefined_name; }")])
    compiler = Compiler()
    messages = []
    for _ in range(2):
        with pytest.raises(CodegenError) as err:
            compiler.compile(cfg)
        messages.append(str(err.value))
        assert compiler._kept == {}
    assert messages[0] == messages[1]


# -- freeing the kept module -------------------------------------------------

def test_a_session_of_its_own_drops_the_kept_prefix():
    cfg = get_config("TestSNAP-seq")
    own = ProbingDriver(cfg)
    own.run()
    assert own.compiler._kept == {}
    shared = Compiler()
    ProbingDriver(cfg, compiler=shared).run()
    assert len(shared._kept) == 1


def test_new_sources_drop_the_kept_prefix():
    compiler = Compiler()
    compiler.compile(get_config("TestSNAP-seq"))
    old = _kept(compiler)
    compiler.compile(get_config("XSBench-seq"))
    assert old.functions == {} and old.globals == {}
    assert _kept(compiler) is not old


@pytest.mark.parametrize("row", ["XSBench-seq", "LULESH-mpi"])
def test_dropped_driver_leaves_no_ir_for_the_collector(row):
    """Census: a session whose driver built its own compiler, dropped
    with its report, leaves no IR value, block or use list for the
    cyclic collector — the kept prefix included."""
    gc.collect()
    gc.disable()
    try:
        driver = ProbingDriver(get_config(row))
        report = driver.run()
        assert not report.failed
        del driver, report
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = [type(o).__name__ for o in gc.garbage
                 if isinstance(o, (Value, BasicBlock, UseList))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == []
