"""Tests for the experiment harness, report rendering, and the CLI."""

import json

import pytest

from repro.experiments import (
    SyntheticOracle,
    pct,
    probe_synthetic,
    render_fig2,
    render_fig5,
    render_table,
    run_fig2,
)
from repro.oraql import (
    BenchmarkConfig,
    DecisionSequence,
    ProbingDriver,
    SourceFile,
    render_pessimistic_dump,
    render_report,
)
from repro.oraql.cli import build_parser, main


class TestTables:
    def test_render_table_alignment(self):
        t = render_table(["a", "bb"], [[1, 22], [333, 4]], title="T")
        lines = t.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_pct(self):
        assert pct(110, 100) == "+10.0%"
        assert pct(90, 100) == "-10.0%"
        assert pct(5, 0) == "n/a"


class TestSyntheticProbing:
    def test_oracle_counts_tests(self):
        oc = SyntheticOracle(16, {3})
        assert not oc.test(DecisionSequence([1] * 16))
        assert oc.test(DecisionSequence([1, 1, 1, 0]))
        assert oc.tests == 2

    @pytest.mark.parametrize("dangerous", [
        set(), {0}, {15}, {3, 4, 5}, {0, 8, 15},
    ])
    def test_both_strategies_exact(self, dangerous):
        for name in ("chunked", "frequency"):
            oc = SyntheticOracle(16, set(dangerous))
            assert probe_synthetic(name, oc) == dangerous

    def test_chunked_cheaper_than_exhaustive(self):
        oc = SyntheticOracle(512, {100, 101, 102, 103})
        found = probe_synthetic("chunked", oc)
        assert found == {100, 101, 102, 103}
        assert oc.tests < 512 // 2

    def test_fig2_rows_complete(self):
        rows = run_fig2(64)
        assert len(rows) == 5
        text = render_fig2(rows)
        assert "clustered" in text


class TestFig2DriverParity:
    """The real ``ProbingDriver`` bisection loop, probing the synthetic
    oracle through a stubbed ``_test``, isolates the planted set with
    every registered strategy."""

    def _driver_on(self, oracle, strategy):
        from repro.oraql import TestOutcome
        cfg = BenchmarkConfig(
            name="parity",
            sources=[SourceFile("t.c", "int main() { return 0; }")])
        driver = ProbingDriver(cfg, strategy=strategy)
        driver._test = lambda seq: TestOutcome(
            oracle.test(seq), oracle.n, f"exe:{seq.bits}")
        # the failed all-optimistic attempt the driver would have seen
        return driver._probe(TestOutcome(False, oracle.n, "exe:first"))

    @pytest.mark.parametrize("dangerous", [
        set(), {0}, {15}, {3, 4, 5}, {0, 8, 15}, {7, 8, 9, 10},
    ])
    def test_every_registered_strategy_converges(self, dangerous):
        """The strategy-lab contract on the synthetic oracle: every
        registered strategy isolates the same dangerous set."""
        from repro.oraql import DecisionSequence
        from repro.oraql.strategies import strategy_names
        for strategy in strategy_names():
            shared = SyntheticOracle(16, set(dangerous))
            if shared.test(DecisionSequence()):
                # fully optimistic: the driver never starts a strategy
                # (strategies may trust that the first attempt failed)
                continue
            assert self._driver_on(shared, strategy) == dangerous, strategy


class TestRendering:
    def test_fig5_renders_both_tables(self):
        text = render_fig5()
        assert "this reproduction" in text
        assert "LLVM" in text

    def test_report_rendering(self):
        src = """
        void f(double* a, double* b) { a[0] = b[0] * 2.0; b[1] = a[1]; }
        int main() {
          double m[4];
          m[0] = 1.0; m[1] = 2.0; m[2] = 0.0; m[3] = 0.0;
          f(m, m + 1);
          printf("%.3f %.3f %.3f\\n", m[0], m[1], m[2]);
          return 0;
        }
        """
        cfg = BenchmarkConfig(name="r", sources=[SourceFile("r.c", src)])
        rep = ProbingDriver(cfg).run()
        text = render_report(rep)
        assert "== ORAQL report: r ==" in text
        assert "optimistic queries" in text
        assert "probing effort" in text
        if rep.pess_unique:
            assert "[ORAQL] Pessimistic query" in text
            dump = render_pessimistic_dump(rep)
            assert "Executing Pass" in dump


class TestConfigSerialization:
    def test_json_roundtrip(self):
        cfg = BenchmarkConfig(
            name="x",
            sources=[SourceFile("a.c", "int main() { return 0; }")],
            probe_files=["a.c"],
            target_filter="nvptx",
            nranks=2,
            output_filters=[("t.*", "T")],
        )
        back = BenchmarkConfig.from_json(cfg.to_json())
        assert back.name == cfg.name
        assert back.sources[0].text == cfg.sources[0].text
        assert back.output_filters == [("t.*", "T")]
        assert back.target_filter == "nvptx"

    def test_json_is_valid(self):
        cfg = BenchmarkConfig(name="x", sources=[])
        json.loads(cfg.to_json())


class TestCLI:
    def test_parser_options(self):
        p = build_parser()
        args = p.parse_args(["--workload", "XSBench-seq",
                             "--strategy", "frequency"])
        assert args.workload == "XSBench-seq"
        assert args.strategy == "frequency"

    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "TestSNAP-openmp" in out
        assert "XSBench-cuda-thrust" in out

    def test_requires_input(self, capsys):
        assert main([]) == 2

    def test_config_file_workflow(self, tmp_path, capsys):
        src = """
        int main() {
          double a[8];
          for (int i = 0; i < 8; i++) { a[i] = i; }
          double s = 0.0;
          for (int i = 0; i < 8; i++) { s = s + a[i]; }
          printf("%.1f\\n", s);
          return 0;
        }
        """
        cfg = BenchmarkConfig(name="file-cfg",
                              sources=[SourceFile("m.c", src)])
        path = tmp_path / "bench.json"
        path.write_text(cfg.to_json())
        assert main(["--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ORAQL report: file-cfg" in out

    def test_workload_run(self, capsys):
        assert main(["--workload", "MiniGMG-ompif"]) == 0
        out = capsys.readouterr().out
        assert "fully optimistic" in out

    def test_cache_and_journal_keep_the_compiler_options(self, tmp_path,
                                                         capsys):
        # one workload runs in-process with the CLI's Compiler whatever
        # --cache-dir / --journal / --jobs say, so --invalidation holds
        def rebuilds(*extra):
            assert main(["--workload", "MiniGMG-sse", *extra]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("analysis rebuilds")]

        coarse = rebuilds("--invalidation", "coarse")
        assert coarse and coarse != rebuilds()
        assert rebuilds("--invalidation", "coarse",
                        "--cache-dir", str(tmp_path / "cache")) == coarse
        assert rebuilds("--invalidation", "coarse", "--jobs", "2",
                        "--journal", str(tmp_path / "journal")) == coarse
