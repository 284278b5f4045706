"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python -m pytest -q bench
"""

import contextlib
import io
import json
import os
import re

import pytest

import compare
import layers
import run

TINY = ("MiniGMG-ompif",)


@pytest.fixture(scope="module")
def decl():
    return run.declared()


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    return tmp_path


# -- the declaration ----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declaration_grammar(decl):
    assert set(decl) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in decl["workloads"]]
    names += [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert sorted(w["name"] for w in decl["workloads"]) == sorted(run.ROWS)
    for w in decl["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in decl["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in decl["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = [m for m in decl["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in decl["end_to_end"])
    assert 1 <= decl["run_seconds"] <= 60


def test_computed_metrics_are_declared(decl):
    out = run.Outcome(ops=[run.Op("r", "r#0", 1.5)], setup=[0.3, 0.2, 0.4],
                      peak_rss_mb=40.0)
    assert set(run.end_to_end(out)) == {m["name"]
                                        for m in decl["end_to_end"]}
    assert set(run.per_layer(out)) == {m["name"] for m in decl["per_layer"]}


def test_main_prints_every_declared_metric(decl, results_dir, monkeypatch):
    monkeypatch.setattr(run, "ROWS", {**run.ROWS, "optimistic": TINY})
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(["--workload", "optimistic", "--seconds", "0"]) == 0
    lines = stdout.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] == 1
    assert result["failed"] == 0
    units = {m["name"]: m["unit"] for m in decl["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[1:2] == [name] and unit in line.split()
                   for line in lines[:-1])
    record = json.loads((results_dir / "runs.jsonl").read_text())
    assert record["workload"] == "optimistic" and record["trace"] == 0


# -- spans --------------------------------------------------------------------

def test_self_time_arithmetic():
    spans = [["driver", 0.0, 10.0, -1, "s1"],
             ["compiler", 1.0, 4.0, 0, "s1"],
             ["passes", 1.5, 3.0, 1, "s1"],
             ["passes", 3.0, 3.5, 1, "s1"],
             ["vm", 5.0, 9.0, 0, "s1"],
             ["driver", 20.0, 21.0, -1, "s2"]]
    selfs = layers.self_times(spans)
    assert selfs["s1"] == pytest.approx(
        {"driver": 3.0, "compiler": 1.0, "passes": 2.0, "vm": 4.0})
    assert selfs["s2"] == pytest.approx({"driver": 1.0})
    assert layers.root_durations(spans) == pytest.approx(
        {"s1": 10.0, "s2": 1.0})


def test_per_layer_averages_sessions_per_row_and_sums_rows():
    spans = [["driver", 0.0, 2.0, -1, "a#0"], ["vm", 0.5, 1.5, 0, "a#0"],
             ["driver", 3.0, 7.0, -1, "a#1"], ["vm", 3.0, 6.0, 2, "a#1"],
             ["driver", 8.0, 9.0, -1, "b#2"], ["vm", 8.0, 8.5, 4, "b#2"]]
    ops = [run.Op("a", "a#0", 2.0), run.Op("a", "a#1", 4.0),
           run.Op("b", "b#2", 1.0)]
    out = run.Outcome(ops, [1.0], 1.0, spans=spans, counts={})
    m = run.per_layer(out)
    assert m["vm.self_s"] == pytest.approx(2.0 + 0.5)
    assert m["driver.self_s"] == pytest.approx(1.0 + 0.5)
    assert m["trace.wall_s"] == pytest.approx(3.0 + 1.0)
    assert m["trace.coverage"] == pytest.approx(2.5 / 4.0)


def _originals():
    return {(module, path): layers._resolve(module, path)[2]
            for _layer, module, path, _count in layers.TARGETS}


def test_wrappers_restore_originals():
    before = _originals()
    rec = layers.Recorder()
    with layers.installed(rec) as absent:
        assert absent == []
        during = _originals()
        assert all(during[k] is not before[k] for k in before)
    assert _originals() == before


def test_untraced_run_installs_no_wrappers(monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("an untraced run installed wrappers")
    monkeypatch.setattr(layers, "installed", refuse)
    before = _originals()
    out = run.measure("optimistic", 0, 0.0, trace=False, rows=TINY)
    assert [op.ok for op in out.ops] == [True] and out.spans == []
    assert _originals() == before


def test_traced_run_records_spans_and_restores():
    before = _originals()
    out = run.measure("optimistic", 0, 0.0, trace=True, rows=TINY)
    assert _originals() == before
    m = run.per_layer(out)
    assert m["compiler.calls"] == 3 and m["vm.runs"] == 3
    assert m["trace.coverage"] >= 0.95


def test_missing_target_is_an_absent_layer(monkeypatch):
    full = run.per_layer(run.measure("optimistic", 0, 0.0, trace=True,
                                     rows=TINY))
    targets = tuple(
        (layer, module, path + "_gone" if layer == "vm" else path, count)
        for layer, module, path, count in layers.TARGETS)
    monkeypatch.setattr(layers, "TARGETS", targets)
    out = run.measure("optimistic", 0, 0.0, trace=True, rows=TINY)
    assert out.absent == ["repro.oraql.compiler.CompiledProgram.run_gone"]
    partial = run.per_layer(out)
    assert partial["vm.self_s"] == 0.0
    assert partial["trace.coverage"] < full["trace.coverage"] - 0.2


# -- answers ------------------------------------------------------------------

def test_tampered_expected_entry_fails_the_operation():
    expected = run.load_expected()
    expected[TINY[0]] = dict(expected[TINY[0]], final_exe_hash="0" * 64)
    out = run.measure("optimistic", 0, 0.0, trace=False, rows=TINY,
                      expected=expected)
    assert len(out.ops) == 1 and not out.ops[0].ok
    assert "final_exe_hash" in out.ops[0].problems[0]


def test_service_round_checks_answers_and_stops_its_processes():
    out = run.measure("service", 3, 0.0, trace=True,
                      rows=("MiniGMG-ompif", "MiniGMG-sse"))
    assert sorted(op.row for op in out.ops) == ["MiniGMG-ompif",
                                                "MiniGMG-sse"]
    assert all(op.ok for op in out.ops)
    assert all(op.scale != 1.0 for op in out.ops)  # sampled in the worker
    assert len(out.setup) == run.SETUP_SAMPLES
    m = run.per_layer(out)
    assert m["compiler.calls"] == 6 and m["cache.lookups"] == 2
    assert m["op.overhead_s"] > 0
    assert run._descendants(os.getpid()) == []


# -- --compare ----------------------------------------------------------------

def _records(workload, metric, values):
    return [{"workload": workload, "seed": seed, "metrics": {metric: v}}
            for seed, v in enumerate(values)]


BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]


@pytest.mark.parametrize("values, expected", [
    ([v * 0.8 for v in BASE], "improved"),
    ([v * 1.3 for v in BASE], "regressed"),
    ([v * 1.01 for v in BASE], "unchanged"),
    ([v * (1 + (i % 2)) for i, v in enumerate(BASE)], "unresolved"),
    ([v * 0.8 for v in BASE[:5]], "unresolved"),
])
def test_compare_verdicts(decl, values, expected):
    lines, regressed = compare.compare(_records("bisect", "wall_s", BASE),
                                       _records("bisect", "wall_s", values),
                                       decl)
    assert lines[1].split()[-1] == expected
    assert regressed == (expected == "regressed")


def test_compare_layer_metrics_have_no_regression(decl):
    worse = [v * 2 for v in BASE]
    lines, regressed = compare.compare(
        _records("bisect", "vm.self_s", BASE),
        _records("bisect", "vm.self_s", worse), decl)
    assert lines[1].split()[-1] == "worse" and not regressed


def test_compare_exit_status(decl, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.json"
    a.write_text("\n".join(json.dumps(r) for r in
                           _records("bisect", "wall_s", BASE)))
    b.write_text(json.dumps(_records("bisect", "wall_s",
                                     [v * 1.3 for v in BASE])))
    assert compare.main(str(a), str(b), decl) == 1
    assert compare.main(str(a), str(a), decl) == 0
