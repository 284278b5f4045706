"""The function memo (:mod:`repro.oraql.fnmemo`): a compile runs the
pipeline only on functions whose ORAQL answers are new.

* The referee: every probe of the chunked strategy goldens compiled
  through one shared compiler (whose memo serves every compile after
  the first) equals the same probe compiled by a fresh compiler, in
  everything :func:`repro.fuzz.oracle.compile_fingerprint` reads.
* The premise: equal (function, answers) in one session means equal
  function hash.
* The mechanics: replay, materialization, bypass reasons, held bodies,
  and the structured error of a pipeline that is not deterministic.
"""

from __future__ import annotations

import os

import pytest

from conftest import GOLDEN_DIR
from helpers import (
    answer_premise,
    golden_probe_sequences,
    memo_referee,
    parity_cases,
)
from repro.fuzz.oracle import compile_fingerprint
from repro.ir import function_hash
from repro.ir.values import GlobalVariable
from repro.oraql.compiler import Compiler
from repro.oraql.driver import ProbingDriver
from repro.oraql.fnmemo import FunctionMemoError
from repro.oraql.override import OraqlOverridePass
from repro.oraql.pass_ import DumpFlags
from repro.oraql.report import render_report
from repro.oraql.sequence import DecisionSequence
from repro.service.jobs import report_to_dict
from repro.trace import QueryTrace
from repro.trace.stream import JsonlStreamingTrace
from repro.workloads.base import get_config

CHUNKED = os.path.join(GOLDEN_DIR, "strategy_probes_chunked.txt")
CASES = dict(parity_cases())


def _kept(cfg, **kw):
    """A compiler that keeps ``cfg``'s prefix already, from a compile
    that bypasses the memo: no later compile counts the prefix's work."""
    compiler = Compiler(**kw)
    compiler.compile(cfg, debug_pass_executions=True)
    return compiler


def _compile(compiler, cfg, bits=None, **kw):
    if bits is None:
        return compiler.compile(cfg, **kw)
    return compiler.compile(cfg, DecisionSequence(bits),
                            oraql_enabled=True, **kw)


@pytest.mark.parametrize("title", sorted(CASES))
def test_memo_compiles_equal_fresh_compiles(title):
    sequences = [None] + golden_probe_sequences(CHUNKED,
                                                f"{title} / chunked")
    assert memo_referee(CASES[title](), sequences) == []


@pytest.mark.parametrize("title", sorted(CASES))
def test_equal_answers_give_equal_function_hashes(title):
    sequences = golden_probe_sequences(CHUNKED, f"{title} / chunked")
    repeats, mismatches = answer_premise(CASES[title](), sequences)
    assert repeats > 0
    assert mismatches == []


class TestReplay:
    def test_repeated_answers_replay_every_step(self):
        cfg = get_config("LULESH-mpi")
        compiler = _kept(cfg)
        first = _compile(compiler, cfg, [])
        again = _compile(compiler, cfg, [])
        assert first.function_memo == {
            "steps replayed": 0,
            "functions materialized": len(
                list(first.module.defined_functions()))}
        assert again.function_memo == {"steps replayed":
                                       again.pass_executions,
                                       "functions materialized": 0}
        assert compile_fingerprint(again) == compile_fingerprint(first)
        # the replayed functions got copies of the stored bodies
        for name, fn in again.module.functions.items():
            assert function_hash(fn) == again.fn_hashes[name]
            assert fn is not first.module.functions[name]

    def test_the_baseline_serves_the_functions_oraql_does_not_reach(self):
        cfg = get_config("XSBench-seq")
        compiler = Compiler()
        _compile(compiler, cfg)
        probe = _compile(compiler, cfg, [])
        replayed = probe.function_memo["steps replayed"]
        assert 0 < replayed < probe.pass_executions
        assert probe.function_memo["functions materialized"] > 0

    def test_new_answers_materialize_only_their_functions(self):
        cfg = get_config("XSBench-seq")
        compiler = Compiler()
        _compile(compiler, cfg, [])
        flipped = _compile(compiler, cfg, [1, 1, 0])
        scoped = {rec.scope for rec in flipped.oraql.records
                  if rec.index >= 2}
        assert 0 < flipped.function_memo["functions materialized"] \
            <= len(scoped)

    def test_released_programs_keep_the_bodies_the_memo_holds(self):
        cfg = get_config("TestSNAP-openmp")
        compiler = _kept(cfg)
        first = _compile(compiler, cfg, [0, 0])
        view = compile_fingerprint(first)
        first.release()
        again = _compile(compiler, cfg, [0, 0])
        assert again.function_memo["functions materialized"] == 0
        assert compile_fingerprint(again) == view
        assert again.run().ok

    def test_a_released_programs_bodies_move_into_the_next_compile(self):
        cfg = get_config("TestSNAP-seq")
        compiler = _kept(cfg)
        first = _compile(compiler, cfg, [])
        second = _compile(compiler, cfg, [])  # copies: first is alive
        assert all(fn.blocks for fn in first.module.defined_functions())
        bodies = {fn.name: list(fn.instructions())
                  for fn in second.module.defined_functions()}
        second.release()
        third = _compile(compiler, cfg, [])
        module = third.module
        for fn in module.defined_functions():
            assert list(fn.instructions()) == bodies[fn.name]
            for inst in fn.instructions():
                for op in inst.operands:
                    if isinstance(op, GlobalVariable):
                        assert module.globals[op.name] is op
        assert compile_fingerprint(third) == compile_fingerprint(first)
        assert third.run().ok

    def test_drop_prefixes_frees_the_held_bodies(self):
        cfg = get_config("TestSNAP-seq")
        compiler = Compiler()
        prog = _compile(compiler, cfg, [])
        held = [fn for fn in prog.module.defined_functions()]
        assert all(fn.held for fn in held)
        prog.release()
        assert all(fn.blocks for fn in held)  # released, still held
        compiler.drop_prefixes()
        assert not any(fn.held or fn.blocks for fn in held)

    def test_a_dropped_compiler_leaves_no_ir_for_the_collector(self):
        """A compiler dropped without ``drop_prefixes`` frees its kept
        prefix and its memo's bodies by reference counting."""
        import gc

        from repro.ir.uselist import UseList

        gc.collect()
        gc.disable()
        try:
            compiler = Compiler()
            prog = _compile(compiler, get_config("TestSNAP-seq"), [])
            del prog, compiler
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            found = [o for o in gc.garbage if isinstance(o, UseList)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert found == []

    def test_a_live_program_keeps_its_bodies_past_the_memo(self):
        cfg = get_config("TestSNAP-seq")
        compiler = Compiler()
        prog = _compile(compiler, cfg, [])
        compiler.drop_prefixes()
        assert not any(fn.held for fn in prog.module.functions.values())
        assert prog.run().ok


class TestBypass:
    @pytest.mark.parametrize("reason,kw", [
        ("trace", dict(trace=QueryTrace())),
        ("dump", dict(dump=DumpFlags(first=True, pessimistic=True))),
        ("override", dict(override=OraqlOverridePass())),
        ("announce", dict(debug_pass_executions=True)),
    ])
    def test_observing_compiles_run_every_pass(self, reason, kw):
        cfg = get_config("TestSNAP-seq")
        compiler = Compiler()
        _compile(compiler, cfg, [])
        prog = _compile(compiler, cfg, [], **kw)
        assert prog.function_memo == {f"bypassed ({reason})": 1}

    def test_verify_analyses_runs_every_pass(self):
        cfg = get_config("TestSNAP-seq")
        compiler = Compiler(verify_analyses=True)
        _compile(compiler, cfg, [])
        prog = _compile(compiler, cfg, [])
        assert prog.function_memo == {"bypassed (verify-analyses)": 1}

    def test_a_timer_only_trace_keeps_the_memo(self):
        cfg = get_config("TestSNAP-seq")
        compiler = Compiler()
        _compile(compiler, cfg, [])
        prog = _compile(compiler, cfg, [],
                        trace=QueryTrace(record_events=False))
        assert prog.function_memo["steps replayed"] > 0

    @pytest.mark.parametrize("verbose", [False, True])
    def test_a_service_event_stream_keeps_the_memo_unless_verbose(
            self, tmp_path, verbose):
        """A service job's default stream keeps the session skeleton
        only, nothing from inside a step."""
        cfg = get_config("TestSNAP-seq")
        compiler = Compiler()
        _compile(compiler, cfg, [])
        trace = JsonlStreamingTrace(str(tmp_path / "events.jsonl"),
                                    verbose=verbose)
        prog = _compile(compiler, cfg, [], trace=trace)
        if verbose:
            assert prog.function_memo == {"bypassed (trace)": 1}
        else:
            assert prog.function_memo["steps replayed"] > 0


def test_a_query_that_differs_from_the_record_is_a_structured_error():
    cfg = get_config("TestSNAP-openmp")
    compiler = Compiler()
    _compile(compiler, cfg, [])
    # corrupt the first recorded query of every function that has one,
    # and drop the stored results, so that every function re-runs its
    # recorded steps when the pipeline ends
    for memo in compiler._memos.values():
        for root in memo.roots.values():
            node, corrupted = root, False
            while node.edges:
                edge = node.edges[0]
                if edge.keys and not corrupted:
                    edge.keys = (frozenset({"@nowhere"}),) + edge.keys[1:]
                    corrupted = True
                node = edge.child
            node.end = None
    with pytest.raises(FunctionMemoError) as err:
        _compile(compiler, cfg, [])
    assert err.value.triage == "compiler-error"
    assert "differs from the recorded one" in str(err.value)


def test_the_report_reads_the_memo_counter_from_the_programs():
    report = ProbingDriver(get_config("TestSNAP-openmp")).run()
    memo = report.function_memo
    assert memo["steps replayed"] > 0
    assert memo["functions materialized"] > 0
    assert report_to_dict(report)["function_memo"] == memo
    assert (f"function memo      : {memo['steps replayed']} pass steps "
            f"replayed, {memo['functions materialized']} functions "
            f"materialized") in render_report(report)
