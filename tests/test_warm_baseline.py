"""The baseline's verdict in the verdict cache.

A cold session records a passing baseline (``"t": "baseline"``, keyed
``<config fingerprint>:<baseline exe hash>``); a warm session that finds
the record skips the baseline run and builds the reference output only
when a test or the final program needs it (``ProbingDriver.verifier``).

* A torn, CRC-bad, unchecksummed or other-fingerprint record is skipped,
  and the baseline runs.
* Compaction keeps baseline records.
* A cold session whose baseline fails its shipped reference, or runs out
  of fuel, raises ``ProbingError`` and stores no record.
* A warm session missing one probe verdict runs the baseline once,
  before that probe's run, and books the cold session's answers.
* A warm importance session reads the verifier on demand and gives the
  cold session's answers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from helpers import counting_runs
from repro.oraql.cache import (CACHE_SCHEMA_VERSION, VerdictCache,
                               config_fingerprint)
from repro.oraql.driver import ProbingDriver
from repro.oraql.errors import ProbingError
from repro.oraql.executor import ExecutorPolicy
from repro.oraql.importance import ImportanceDriver
from repro.oraql.report import render_report
from repro.records import encode_record
from repro.workloads.base import get_config

#: a bisecting row with a mix of passing and failing probes
ROW = "XSBench-seq"


@pytest.fixture
def runs():
    """The program of every ``CompiledProgram.run`` call of the test."""
    with counting_runs() as ran:
        yield ran


def _session(cache_dir, config=None, **kwargs):
    driver = ProbingDriver(config or get_config(ROW),
                           verdict_cache=VerdictCache(str(cache_dir)),
                           **kwargs)
    return driver, driver.run()


def _answers(report):
    return (report.pessimistic_indices, report.final_exe_hash,
            report.baseline_program.exe_hash)


def _lines(cache_dir):
    with open(os.path.join(str(cache_dir), "verdicts.jsonl")) as f:
        return [json.loads(line) for line in f]


def _write(cache_dir, lines):
    with open(os.path.join(str(cache_dir), "verdicts.jsonl"), "w") as f:
        f.writelines(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold session's report and the cache it filled."""
    path = tmp_path_factory.mktemp("cold") / "cache"
    _driver, report = _session(path)
    return report, path


@pytest.fixture
def warm_dir(cold, tmp_path):
    path = tmp_path / "cache"
    shutil.copytree(str(cold[1]), str(path))
    return path


def test_cold_session_records_its_baseline(cold):
    report, path = cold
    assert not report.baseline_cached
    baselines = [r for r in _lines(path) if r.get("t") == "baseline"]
    assert [r["key"] for r in baselines] == [VerdictCache.key(
        config_fingerprint(get_config(ROW)),
        report.baseline_program.exe_hash)]
    assert "crc" in baselines[0] and "code" not in baselines[0]
    assert "baseline " not in render_report(report)
    assert "baseline cached" not in report.summary()


def test_warm_session_runs_no_program(cold, warm_dir, runs):
    report, _path = cold
    driver, warm = _session(warm_dir)
    assert runs == []
    assert warm.baseline_cached
    assert _answers(warm) == _answers(report)
    assert (warm.tests_run, warm.cache_misses) == (0, 0)
    assert warm.cache_hits == report.cache_misses
    assert "baseline           : verdict cached, not run" in \
        render_report(warm)
    assert "baseline cached" in warm.summary()
    # a reader of the verifier after the session runs the baseline then
    assert driver.verifier.check(warm.final_program.run())
    assert runs[0] is warm.baseline_program
    # the record was already there: nothing is appended
    assert VerdictCache(str(warm_dir)).stats()["baseline_records"] == 1


def _baseline_line(key):
    return encode_record({"v": CACHE_SCHEMA_VERSION, "t": "baseline",
                          "key": key})


def _damaged(record):
    line = _baseline_line(record["key"])
    rec = json.loads(line)
    return {
        "torn": line[:len(line) // 2],
        "crc-bad": json.dumps({**rec, "crc": rec["crc"] ^ 1}),
        "no-crc": json.dumps({k: v for k, v in rec.items() if k != "crc"}),
        "other-fingerprint": _baseline_line(
            "0" * 16 + record["key"][record["key"].index(":"):]),
    }


@pytest.mark.parametrize("damage", ["torn", "crc-bad", "no-crc",
                                    "other-fingerprint"])
def test_damaged_baseline_record_is_skipped(cold, warm_dir, runs, damage):
    report, _path = cold
    lines = _lines(warm_dir)
    at = next(i for i, r in enumerate(lines) if r.get("t") == "baseline")
    text = [json.dumps(r) for r in lines]
    text[at] = _damaged(lines[at])[damage]
    _write(warm_dir, text)
    corrupt = VerdictCache(str(warm_dir)).corrupt_records
    assert corrupt == (damage != "other-fingerprint")
    _driver, warm = _session(warm_dir)
    # the baseline runs, at the start; every probe verdict is still read
    assert runs == [warm.baseline_program]
    assert not warm.baseline_cached
    assert _answers(warm) == _answers(report)
    assert (warm.tests_run, warm.cache_hits, warm.cache_misses) == \
        (0, report.cache_misses, 0)
    # and its passing run is recorded again
    key = VerdictCache.key(config_fingerprint(get_config(ROW)),
                           warm.baseline_program.exe_hash)
    assert VerdictCache(str(warm_dir)).has_baseline(key)


def test_baseline_lookup_is_not_a_verdict_lookup(tmp_path):
    c = VerdictCache(str(tmp_path))
    c.put_baseline("fp:exe")
    c.put_baseline("fp:exe")  # not rewritten
    assert len(_lines(tmp_path)) == 1
    r = VerdictCache(str(tmp_path))
    assert r.has_baseline("fp:exe") and not r.has_baseline("fp:other")
    # a baseline record is no probe verdict of the same exe hash
    assert "fp:exe" not in r and len(r) == 0
    assert r.get_record("fp:exe") is None
    assert (r.hits, r.misses) == (0, 1)
    assert r.stats()["baseline_records"] == 1


def test_compaction_keeps_baseline_records(cold, warm_dir, runs):
    report, _path = cold
    with open(os.path.join(str(warm_dir), "verdicts.jsonl"), "a") as f:
        f.write("torn garbage\n")
    cache = VerdictCache(str(warm_dir))
    before, after = cache.compact()
    assert (before, after) == (len(_lines(cold[1])) + 1,
                               len(_lines(warm_dir)))
    assert [r["t"] for r in _lines(warm_dir)
            if r.get("t") == "baseline"] == ["baseline"]
    _driver, warm = _session(warm_dir)
    assert runs == [] and warm.baseline_cached
    assert _answers(warm) == _answers(report)


@pytest.mark.parametrize("failure", ["wrong-reference", "out-of-fuel"])
def test_failing_cold_baseline_raises_and_stores_no_record(tmp_path,
                                                           failure):
    config, kwargs = get_config(ROW), {}
    if failure == "wrong-reference":
        config = dataclasses.replace(config,
                                     reference_outputs=["not this\n"])
        expected = "baseline does not verify"
    else:
        kwargs["policy"] = ExecutorPolicy(fuel=100)
        expected = "baseline run failed"
    with pytest.raises(ProbingError, match=expected) as info:
        _session(tmp_path, config, **kwargs)
    assert info.value.triage == ("wrong-output" if failure ==
                                 "wrong-reference" else "step-limit")
    assert VerdictCache(str(tmp_path)).stats()["baseline_records"] == 0


@pytest.mark.parametrize("which", [0, -1])
def test_one_missing_verdict_runs_the_baseline_once_first(cold, warm_dir,
                                                          runs, which):
    report, _path = cold
    lines = _lines(warm_dir)
    verdicts = [i for i, r in enumerate(lines) if "ok" in r]
    removed = lines.pop(verdicts[which])
    _write(warm_dir, [json.dumps(r) for r in lines])
    _driver, warm = _session(warm_dir)
    assert _answers(warm) == _answers(report)
    assert (warm.tests_run, warm.cache_misses) == (1, 1)
    assert warm.cache_hits == report.cache_misses - 1
    assert not warm.baseline_cached
    # the baseline runs once, before the probe that lost its verdict;
    # the probe may run twice (the nondeterminism re-run of a failure)
    assert runs[0] is warm.baseline_program
    assert warm.baseline_program not in runs[1:]
    assert len(runs) == 1 + (1 if removed["ok"] else 2)
    assert {prog.exe_hash for prog in runs[1:]} == \
        {removed["key"].split(":")[1]}
    # the verdict is stored again; the baseline record is not repeated
    again = _lines(warm_dir)[len(lines):]
    assert [r["key"] for r in again if "ok" in r] == [removed["key"]]
    assert all(r.get("t") != "baseline" for r in again)


def test_warm_importance_session_reads_the_verifier_on_demand(tmp_path):
    """Phase 2 measures with the probing driver's verifier: in a warm
    session the baseline had not run, and the verifier runs it."""
    cache = str(tmp_path / "cache")
    results = []
    for _ in range(2):
        report = ImportanceDriver(get_config("LULESH-mpi"),
                                  verdict_cache=VerdictCache(cache)).run()
        results.append((report.probing.baseline_cached,
                        [q.index for q in report.important],
                        report.baseline_cycles))
    (cold_cached, *cold), (warm_cached, *warm) = results
    assert (cold_cached, warm_cached) == (False, True)
    assert warm == cold
    assert cold[0]


def test_a_probe_that_builds_the_baseline_books_its_own_verdict(tmp_path):
    """On LULESH-seq a probe builds the baseline's executable: the
    baseline record does not serve that probe's verdict, cold or warm."""
    config = get_config("LULESH-seq")
    plain = ProbingDriver(config).run()
    _driver, cold = _session(tmp_path, config)
    baseline_key = VerdictCache.key(config_fingerprint(config),
                                    cold.baseline_program.exe_hash)
    records = _lines(tmp_path)
    assert {"t": "baseline", "key": baseline_key} in [
        {k: r[k] for k in ("t", "key") if k in r} for r in records]
    assert baseline_key in [r["key"] for r in records if "ok" in r]
    assert (cold.tests_run, cold.tests_cached, cold.cache_hits) == \
        (plain.tests_run, plain.tests_cached, 0)
    assert cold.cache_misses == cold.tests_run
    _driver, warm = _session(tmp_path, config)
    assert warm.baseline_cached
    assert (warm.tests_run, warm.cache_hits, warm.cache_misses) == \
        (0, cold.cache_misses, 0)
    assert _answers(warm) == _answers(cold) == _answers(plain)
