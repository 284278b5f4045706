"""CLI error-path tests: unknown subcommands and unknown workloads
must exit 2 with a structured message, never a traceback."""

import pytest

from repro.oraql.cli import importance_main, main


class TestUnknownSubcommand:
    def test_exit_2_with_usage(self, capsys):
        assert main(["bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand 'bogus'" in err
        assert "importance" in err      # names the known subcommands
        assert "usage:" in err
        assert "Traceback" not in err

    def test_subcommand_like_typo(self, capsys):
        assert main(["importence"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err

    def test_known_subcommand_still_dispatches(self, capsys):
        # `oraql importance` without a config reports its own error,
        # proving dispatch reached importance_main
        assert main(["importance"]) == 2
        assert "--config / --workload" in capsys.readouterr().err

    def test_flags_still_reach_main_parser(self, capsys):
        assert main(["--list"]) == 0
        assert "MiniGMG-sse" in capsys.readouterr().out


class TestUnknownWorkload:
    def test_main_exits_2_and_names_rows(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workload", "NoSuchBench"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload 'NoSuchBench'" in err
        assert "MiniGMG-sse" in err     # lists the known rows
        assert "KeyError" not in err

    def test_importance_exits_2_and_names_rows(self, capsys):
        with pytest.raises(SystemExit) as exc:
            importance_main(["--workload", "NoSuchBench"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown workload 'NoSuchBench'" in err
        assert "MiniGMG-sse" in err

    def test_importance_via_main_dispatch(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["importance", "--workload", "NoSuchBench"])
        assert exc.value.code == 2
        assert "unknown workload" in capsys.readouterr().err


class TestUnknownStrategy:
    """--strategy choices come from the strategy registry — one source
    of truth for both the oraql and importance parsers — and an unknown
    name is a structured exit-2 error naming every registered
    strategy, never a traceback."""

    def test_main_exits_2_and_names_strategies(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--workload", "XSBench-seq", "--strategy", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("chunked", "frequency", "provenance-prior"):
            assert name in err
        assert "Traceback" not in err

    def test_importance_exits_2_and_names_strategies(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["importance", "--workload", "XSBench-seq",
                  "--strategy", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "frequency" in err and "provenance-prior" in err

    def test_choices_derive_from_registry(self):
        from repro.oraql.cli import build_importance_parser, build_parser
        from repro.oraql.strategies import strategy_names
        for build in (build_parser, build_importance_parser):
            actions = [a for a in build()._actions
                       if "--strategy" in a.option_strings]
            assert len(actions) == 1
            assert list(actions[0].choices) == strategy_names()

    def test_every_registered_strategy_parses(self):
        from repro.oraql.cli import build_parser
        from repro.oraql.strategies import strategy_names
        p = build_parser()
        for name in strategy_names():
            assert p.parse_args(["--strategy", name]).strategy == name


class TestFitPriorArgs:
    def test_dispatches_from_main(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit-prior", "--seeds", "0"])
        assert exc.value.code == 2
        assert "--seeds must be >= 1" in capsys.readouterr().err

    def test_bad_opt_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit-prior", "--opt-level", "7"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
