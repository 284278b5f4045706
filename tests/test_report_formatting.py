"""Unit tests for the ORAQL report renderer (paper §II / Fig. 3)."""

from repro.analysis.memloc import LocationSize, MemoryLocation
from repro.ir.types import I64, PointerType
from repro.ir.values import Value
from repro.oraql.driver import ProbingReport
from repro.oraql.pass_ import QueryRecord
from repro.oraql.report import (
    render_pessimistic_dump,
    render_query,
    render_report,
)
from repro.oraql.sequence import DecisionSequence


def _report(**kw):
    base = dict(config_name="bench-O3",
                fully_optimistic=False,
                final_sequence=DecisionSequence([1, 0, 1]),
                pessimistic_indices=[1],
                opt_unique=2, opt_cached=5,
                pess_unique=1, pess_cached=3,
                no_alias_original=10, no_alias_oraql=12)
    base.update(kw)
    return ProbingReport(**base)


def _record(index=3, optimistic=False, cached=False):
    ptr_ty = PointerType(I64)
    a = MemoryLocation(Value(ptr_ty, "p"), LocationSize.precise_(8))
    b = MemoryLocation(Value(ptr_ty, "q"), LocationSize.precise_(8))
    return QueryRecord(index=index, optimistic=optimistic, cached=cached,
                       cache_hits=0, a=a, b=b, scope="main",
                       issuing_pass="licm")


class TestRenderReport:
    def test_header_names_the_configuration(self):
        assert render_report(_report()).splitlines()[0] \
            == "== ORAQL report: bench-O3 =="

    def test_query_counts_and_delta(self):
        text = render_report(_report())
        assert "optimistic queries : 2 unique, 5 cached" in text
        assert "pessimistic queries: 1 unique, 3 cached" in text
        assert "10 original -> 12 ORAQL (+20.0%)" in text

    def test_negative_delta_keeps_explicit_sign(self):
        text = render_report(_report(no_alias_original=10, no_alias_oraql=9))
        assert "(-10.0%)" in text

    def test_fully_optimistic_banner(self):
        assert "fully optimistic" in render_report(
            _report(fully_optimistic=True))
        assert "fully optimistic" not in render_report(_report())

    def test_budget_exhausted_warning(self):
        assert "BUDGET EXHAUSTED" in render_report(
            _report(budget_exhausted=True))
        assert "BUDGET EXHAUSTED" not in render_report(_report())

    def test_verdict_cache_line_only_when_cache_was_used(self):
        assert "verdict cache" not in render_report(_report())
        assert "verdict cache      : 4 hits, 2 misses" in render_report(
            _report(cache_hits=4, cache_misses=2))

    def test_analysis_rebuilds_and_preserved_hits(self):
        text = render_report(_report(
            analysis_builds={"AliasAnalysis": 7, "LoopInfo": 2},
            analysis_preserved_hits={"LoopInfo": 5}))
        assert "analysis rebuilds  : AliasAnalysis 7, LoopInfo 2" in text
        assert "rebuilds avoided   : LoopInfo 5" in text

    def test_unique_by_pass_sorted_by_count_with_percentages(self):
        text = render_report(_report(
            unique_by_pass={"licm": 1, "gvn": 3}))
        lines = [l for l in text.splitlines() if l.startswith("  ")]
        assert lines[0].split() == ["gvn", "3", "(75.0%)"]
        assert lines[1].split() == ["licm", "1", "(25.0%)"]


class TestPessimisticDump:
    def test_render_query_is_the_joined_record(self):
        rec = _record()
        assert render_query(rec) == "\n".join(rec.render())
        assert render_query(rec).startswith(
            "[ORAQL] Pessimistic query [Cached 0]")

    def test_live_records_are_rendered_with_issuing_pass(self):
        report = _report(pessimistic_records=[_record()])
        dump = render_pessimistic_dump(report)
        assert "Executing Pass 'licm' on Function 'main'..." in dump
        assert "[ORAQL] Scope: main" in dump
        text = render_report(report)
        assert "pessimistic queries (true aliases):" in text
        assert dump in text

    def test_detached_transport_uses_prerendered_dump(self):
        report = _report(pessimistic_records=[],
                         pessimistic_dump="PRE-RENDERED IN WORKER")
        assert render_pessimistic_dump(report) == "PRE-RENDERED IN WORKER"
        assert "PRE-RENDERED IN WORKER" in render_report(report)

    def test_no_dump_section_without_records(self):
        assert "true aliases" not in render_report(_report())


def _erased(rec) -> bool:
    return any(loc.ptr.parent is None and not loc.ptr.operands
               for loc in (rec.a, rec.b))


class TestErasedPointers:
    """A record's pointer may be an instruction that a later pass
    erased, dropping its operands: it renders by type, name and opcode,
    and every other record renders as the printer prints it."""

    def test_every_record_of_an_all_optimistic_compile_renders(self):
        from repro.oraql.compiler import Compiler
        from repro.workloads.base import get_config

        prog = Compiler().compile(get_config("MiniFE-openmp"),
                                  sequence=DecisionSequence(),
                                  oraql_enabled=True)
        records = prog.oraql.records
        assert len(records) == 75
        texts = [render_query(rec) for rec in records]
        erased = [text for rec, text in zip(records, texts) if _erased(rec)]
        assert len(erased) == 45
        assert all("(erased getelementptr) [" in text for text in erased)
        assert not any("(erased" in text for rec, text in zip(records, texts)
                       if not _erased(rec))

    def test_report_whose_final_program_holds_an_erased_pointer(self):
        from repro.oraql.compiler import Compiler
        from repro.oraql.sequence import sequence_from_pessimistic_set
        from repro.workloads.base import get_config

        # unique query 5 answered pessimistically: its pointer is still
        # erased later in the pipeline
        prog = Compiler().compile(get_config("MiniFE-openmp"),
                                  sequence=sequence_from_pessimistic_set({5}),
                                  oraql_enabled=True)
        (rec,) = prog.oraql.pessimistic_records()
        assert rec.index == 5 and _erased(rec)
        report = _report(pessimistic_indices=[5],
                         pessimistic_records=[rec], final_program=prog)
        dump = render_pessimistic_dump(report)
        assert dump.splitlines()[0] == (f"Executing Pass '{rec.issuing_pass}'"
                                        f" on Function '{rec.scope}'...")
        assert "(erased getelementptr)" in dump
        assert dump in render_report(report)
        assert report.detach_for_transport().pessimistic_dump == dump
