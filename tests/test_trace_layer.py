"""Unit tests for the query-provenance trace layer: the sink, the phase
timer, event records, exporters, the summarize views, and the
``python -m repro.trace`` CLI."""

import json

import pytest

from repro.oraql.driver import ProbingDriver
from repro.trace import QueryTrace, PhaseTimer, RESPONDER_ORAQL
from repro.trace import events as ev
from repro.trace import export, summarize
from repro.trace.__main__ import main as trace_main

from test_oraql_driver import HAZARD_SRC, SAFE_SRC, cfg_of


class FakeClock:
    """Deterministic clock: every read advances by ``step``."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        t = self.now
        self.now += self.step
        return t


class TestPhaseTimer:
    def test_nesting_and_self_time(self):
        t = PhaseTimer(clock=FakeClock())
        with t.phase("outer"):
            with t.phase("inner"):
                pass
        outer = t.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.count == 1 and inner.count == 1
        assert inner.total <= outer.total
        assert outer.self_time >= 0
        assert outer.self_time == pytest.approx(outer.total - inner.total)

    def test_reentry_accumulates(self):
        t = PhaseTimer(clock=FakeClock())
        for _ in range(3):
            with t.phase("p"):
                pass
        assert t.root.children["p"].count == 3

    def test_merge_and_dict_roundtrip(self):
        a = PhaseTimer(clock=FakeClock())
        with a.phase("x"):
            with a.phase("y"):
                pass
        b = PhaseTimer(clock=FakeClock())
        with b.phase("x"):
            pass
        with b.phase("z"):
            pass
        a.merge(b)
        assert a.root.children["x"].count == 2
        assert "z" in a.root.children
        tree = a.to_dict()
        back = PhaseTimer.from_dict(tree)
        assert back.to_dict() == tree

    def test_merge_dict_none_is_noop(self):
        t = PhaseTimer()
        t.merge_dict(None)
        assert t.root.children == {}

    def test_render_normalized_hides_times(self):
        t = PhaseTimer(clock=FakeClock())
        with t.phase("p"):
            pass
        text = t.render(normalize=True)
        assert "*" in text and "0.0" not in text
        assert "Phase timing report" in text

    def test_exception_still_closes_phase(self):
        t = PhaseTimer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with t.phase("p"):
                raise RuntimeError("boom")
        assert t.root.children["p"].count == 1
        assert t._stack == [t.root]


class TestEvents:
    def test_split_compiles(self):
        records = [
            ev.meta_record("c", "chunked"),
            ev.compile_record(1, "baseline"),
            {"t": "q"},
            ev.compile_record(2, "final"),
            {"t": "r"},
            {"t": "done"},
        ]
        buckets = ev.split_compiles(records)
        assert [label for label, _ in buckets] == \
            ["<pre>", "baseline", "final"]
        assert len(buckets[2][1]) == 2

    def test_reused_compile_is_split_again_under_its_new_label(self):
        q2, r2 = {"t": "q", "i": 2}, {"t": "r", "i": 2}
        records = [
            ev.compile_record(1, "baseline"),
            {"t": "q", "i": 1},
            ev.compile_record(2, "probe"),
            q2, r2,
            ev.compile_record(3, "probe"),
            {"t": "q", "i": 3},
            ev.compile_record(2, "final", bits=[0], reuses=True),
            {"t": "done"},
        ]
        assert records[-2] == {"t": "compile", "reuses": 2,
                               "label": "final", "bits": "0"}
        buckets = ev.split_compiles(records)
        assert [label for label, _ in buckets] == \
            ["baseline", "probe", "probe", "final"]
        assert buckets[1][1] == [q2, r2]  # the probe keeps its own
        assert buckets[3][1] == [q2, r2, {"t": "done"}]

    def test_split_compiles_empty_pre_dropped(self):
        records = [ev.compile_record(1, "final"), {"t": "q"}]
        assert [l for l, _ in ev.split_compiles(records)] == ["final"]

    def test_compile_record_bits(self):
        rec = ev.compile_record(3, "probe", bits=[1, 0, 1])
        assert rec["bits"] == "101"
        assert "bits" not in ev.compile_record(1, "baseline")

    def test_query_record_oraql_fields(self):
        rec = ev.query_record("GVN", ["GVN"], "f", "ab12", RESPONDER_ORAQL,
                              "NoAlias", cached=True, index=4,
                              optimistic=True)
        assert rec["cached"] and rec["index"] == 4
        plain = ev.query_record("GVN", ["GVN"], "f", "ab12", "tbaa",
                                "NoAlias")
        assert "cached" not in plain and "index" not in plain


class TestSink:
    def test_remark_links_optimistic_answers_since_mark(self):
        sink = QueryTrace(clock=FakeClock())
        sink.begin_compile("final")
        # out-of-window answer (before the mark) must not be linked
        sink._oraql_log.append((9, True))
        mark = sink.mark()
        sink._oraql_log.append((2, True))
        sink._oraql_log.append((3, False))   # pessimistic: not linked
        sink._oraql_log.append((2, True))    # duplicate: linked once
        sink.remark("LICM", "f", "hoisted load %x", since=mark)
        rec = [r for r in sink.records if r["t"] == "r"][0]
        assert rec["queries"] == [2]
        assert rec["message"].endswith("because ORAQL said no-alias(q2)")

    def test_remark_without_optimistic_answers_is_plain(self):
        sink = QueryTrace(clock=FakeClock())
        sink.begin_compile("final")
        mark = sink.mark()
        sink.remark("DSE", "f", "deleted dead store", since=mark)
        rec = [r for r in sink.records if r["t"] == "r"][0]
        assert rec["queries"] == []
        assert "because" not in rec["message"]

    def test_timer_only_mode_records_nothing(self):
        sink = QueryTrace(clock=FakeClock(), record_events=False)
        sink.session("c", "chunked")
        sink.begin_compile("final")
        sink.remark("p", "f", "m", since=sink.mark())
        sink.record_done([1])
        assert sink.records == []
        with sink.phase("passes"):
            pass
        assert "passes" in sink.timer.root.children

    def test_begin_compile_resets_remark_window(self):
        sink = QueryTrace(clock=FakeClock())
        sink.begin_compile("probe")
        sink._oraql_log.append((0, True))
        sink.begin_compile("final")
        assert sink.mark() == 0


class TestExport:
    def test_jsonl_atomic_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        export.write_jsonl(str(path), [{"t": "meta"}, {"t": "done"}])
        assert export.read_jsonl(str(path)) == [{"t": "meta"}, {"t": "done"}]
        # no temp litter
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    def test_chrome_validate_catches_garbage(self):
        assert export.validate_chrome({"nope": 1})
        assert export.validate_chrome(
            {"traceEvents": [{"ph": "Q"}], "displayTimeUnit": "ms"})
        good = export.chrome_document([{"t": "meta"}])
        assert export.validate_chrome(good) == []

    def test_chrome_validate_structural_fallback(self, monkeypatch):
        import builtins
        real_import = builtins.__import__

        def no_jsonschema(name, *args, **kwargs):
            if name == "jsonschema":
                raise ImportError(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_jsonschema)
        good = export.chrome_document([{"t": "meta"}])
        assert export.validate_chrome(good) == []
        assert export.validate_chrome({"nope": 1})

    def test_chrome_phase_events_from_timer(self):
        t = PhaseTimer(clock=FakeClock())
        with t.phase("passes"):
            with t.phase("GVN"):
                pass
        doc = export.chrome_document([], t.to_dict())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in complete}
        assert {"passes", "GVN"} <= names
        gvn = next(e for e in complete if e["name"] == "GVN")
        passes = next(e for e in complete if e["name"] == "passes")
        # the child's span nests inside the parent's
        assert gvn["ts"] >= passes["ts"]
        assert gvn["ts"] + gvn["dur"] <= passes["ts"] + passes["dur"] + 1e-6


class TestSummarize:
    def _trace(self):
        trace = QueryTrace()
        ProbingDriver(cfg_of(HAZARD_SRC, "hazard"), trace=trace).run()
        return trace

    def test_query_counts_match_live_report(self):
        trace = QueryTrace()
        rep = ProbingDriver(cfg_of(HAZARD_SRC, "hazard"), trace=trace).run()
        c = summarize.query_counts(trace.records, "final")
        assert c["opt_unique"] == rep.opt_unique
        assert c["opt_cached"] == rep.opt_cached
        assert c["pess_unique"] == rep.pess_unique
        assert c["pess_cached"] == rep.pess_cached
        assert c["no_alias_total"] == rep.no_alias_oraql

    def test_pass_stats_match_live_stats(self):
        trace = QueryTrace()
        rep = ProbingDriver(cfg_of(SAFE_SRC, "safe"), trace=trace).run()
        rows = summarize.pass_stats(trace.records, "final")
        assert sorted(rows) == rep.final_program.stats.rows()

    def test_unknown_label_raises_with_choices(self):
        trace = self._trace()
        with pytest.raises(ValueError, match="final"):
            summarize.render_query_table(trace.records, "nonsense")

    def test_explain_query_lists_enabling_remarks(self):
        trace = self._trace()
        pess = summarize.pessimistic_set(trace.records)
        assert pess  # the hazard workload pins at least one query
        text = summarize.explain_query(trace.records, pess[0], "final")
        assert f"query q{pess[0]}" in text
        assert "asked by" in text

    def test_summarize_renders_all_sections(self):
        trace = self._trace()
        text = summarize.summarize(trace.records, trace.timer.to_dict())
        for needle in ("Fig. 4 columns", "query attribution",
                       "Fig. 6 style", "Remarks:", "Pessimistic set",
                       "Phase timing report"):
            assert needle in text


class TestTraceCLI:
    def _write_trace(self, tmp_path):
        trace = QueryTrace()
        ProbingDriver(cfg_of(HAZARD_SRC, "hazard"), trace=trace).run()
        path = tmp_path / "t.jsonl"
        export.write_jsonl(str(path), trace.records)
        timer = tmp_path / "timer.json"
        timer.write_text(json.dumps(trace.timer.to_dict()))
        return str(path), str(timer)

    def test_summarize_subcommand(self, tmp_path, capsys):
        path, timer = self._write_trace(tmp_path)
        assert trace_main(["summarize", path, "--timer", timer]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4 columns" in out and "Phase timing report" in out

    def test_chrome_and_validate_subcommands(self, tmp_path, capsys):
        path, timer = self._write_trace(tmp_path)
        out_json = str(tmp_path / "t.json")
        assert trace_main(["chrome", path, "-o", out_json,
                           "--timer", timer]) == 0
        assert trace_main(["validate", out_json]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": "nope"}')
        assert trace_main(["validate", str(bad)]) == 1

    def test_query_explain_subcommand(self, tmp_path, capsys):
        path, _ = self._write_trace(tmp_path)
        assert trace_main(["summarize", path, "--query", "0"]) == 0
        assert "query q0" in capsys.readouterr().out
