"""Tests for the one worker pool and its loss contract, as every caller
sees it: the pool itself, the configuration fan-out, and the fuzz and
chaos campaigns (the service's view is in tests/test_service_chaos.py).
"""

import os
import time

import pytest

from repro.faults.chaos import InjectionResult
from repro.faults.injector import SessionKilled
from repro.fuzz.campaign import SeedResult
from repro.fuzz.cli import main as fuzz_main
from repro.oraql import ExecutorPolicy, ParallelProbingDriver, ProbingDriver
from repro.oraql.pool import MAX_WORKER_RETRIES, WorkerLost, WorkerPool
from repro.service.jobs import report_to_dict

from test_parallel_resilience import SAFE_SRC, WIDE_HAZARD_SRC, cfg_of

#: marker file the dying workers below check; set per test (the pool's
#: workers are forked after, so they see it)
MARKER = None


# -- module-level workers (pool tasks must pickle) --------------------------

def _echo(value, attempt):
    return (value, attempt)


def _exit_on_attempt_zero(value, attempt):
    if attempt == 0:
        os._exit(3)
    return value


def _exit_always(value, attempt):
    os._exit(3)


def _killed_on_attempt_zero(value, attempt):
    if attempt == 0:
        raise SessionKilled("injected")
    return value


def _mixed(i, attempt):
    """Task 0 kills its worker, odd tasks their session, on attempt 0."""
    if attempt == 0 and i == 0:
        os._exit(3)
    if attempt == 0 and i % 2:
        raise SessionKilled(f"injected {i}")
    time.sleep(0.01)
    return i * i


def _raise_value_error(value, attempt):
    raise ValueError(f"bad {value}")


def _exit_once(seed, opts):
    """Dies the first time any seed runs, then behaves."""
    if not os.path.exists(MARKER):
        open(MARKER, "w").close()
        os._exit(3)
    return _result(seed, opts)


def _exit_every_time(seed, opts):
    os._exit(3)


def _result(seed, opts):
    if hasattr(opts, "injections"):
        return InjectionResult(seed=seed, workload="w", strategy="chunked",
                               kind="trap", at=0, outcome="recovered")
    return SeedResult(seed=seed, hazard=False)


def _args(value):
    return lambda attempt: (value, attempt)


class TestWorkerPool:
    @pytest.mark.parametrize("processes", [0, 2])
    def test_run_yields_every_task(self, processes):
        with WorkerPool(processes) as pool:
            got = {i: task.future.result() for i, task in pool.run(
                _echo, [(f"t{v}", _args(v)) for v in range(5)])}
        assert got == {v: (v, 0) for v in range(5)}

    def test_one_break_respawns_once(self):
        # both workers die in one break; both tasks see it, and the
        # respawn counter lets only the first respawn the pool
        with WorkerPool(2) as pool:
            tasks = [pool.submit(_exit_on_attempt_zero, _args(v), f"t{v}")
                     for v in ("a", "b")]
            assert [t.future.result(timeout=60) for t in tasks] == ["a", "b"]
            assert pool.respawns == 1
        for task in tasks:
            assert task.attempt == 1
            assert len(task.worker_errors) == 1
            assert "requeued as attempt 1" in task.worker_errors[0]

    def test_requeue_is_bounded(self):
        with WorkerPool(1) as pool:
            task = pool.submit(_exit_always, _args("x"), "doomed")
            with pytest.raises(WorkerLost, match="doomed: worker lost 3"):
                task.future.result(timeout=60)
        assert task.attempt == MAX_WORKER_RETRIES + 1
        # the loss that exhausted the bound is recorded too
        assert len(task.worker_errors) == task.attempt
        assert "retries exhausted" in task.worker_errors[-1]

    @pytest.mark.parametrize("processes", [0, 1])
    def test_session_killed_requeues_without_respawn(self, processes):
        with WorkerPool(processes) as pool:
            task = pool.submit(_killed_on_attempt_zero, _args("x"), "t")
            assert task.future.result(timeout=60) == "x"
            assert pool.respawns == 0
        assert "SessionKilled" in task.worker_errors[0]

    @pytest.mark.parametrize("processes", [0, 1])
    def test_other_errors_are_not_retried(self, processes):
        with WorkerPool(processes) as pool:
            task = pool.submit(_raise_value_error, _args("x"), "t")
            with pytest.raises(ValueError, match="bad x"):
                task.future.result(timeout=60)
        assert task.attempt == 0 and task.worker_errors == []

    def test_stress_more_workers_than_cores(self):
        # losses settle on the executors' threads while the caller
        # submits: one break must still respawn once, and every task
        # must come back with its own result and loss record
        deadline = time.monotonic() + 120
        with WorkerPool(3) as pool:
            done = dict(pool.run(_mixed, [(f"t{i}", _args(i))
                                          for i in range(16)], deadline))
            assert pool.respawns == 1
        assert sorted(done) == list(range(16))
        for i, task in done.items():
            assert task.future.result() == i * i
            assert task.attempt == len(task.worker_errors) <= 2
            assert task.attempt >= (1 if i == 0 or i % 2 else 0)

    def test_past_deadline_nothing_runs(self):
        with WorkerPool(0) as pool:
            done = list(pool.run(_echo, [("t", _args(1))],
                                 deadline=time.monotonic() - 1))
        assert done == []


def _answers(report):
    return (report.pessimistic_indices, report.final_exe_hash,
            report.fully_optimistic, report.opt_unique, report.pess_unique,
            report.no_alias_oraql)


class TestFanoutContract:
    CONFIGS = [cfg_of(WIDE_HAZARD_SRC, "hazard"), cfg_of(SAFE_SRC, "safe")]

    @pytest.mark.parametrize("policy,plan", [
        # the hazard baseline needs ~2.5k steps, the safe one ~100
        (ExecutorPolicy(fuel=1000), None),
        (ExecutorPolicy(backoff=0.0),
         [{"kind": "compiler-error", "at": 1}]),
    ], ids=["fuel", "fault-plan"])
    def test_settings_do_not_depend_on_jobs(self, policy, plan):
        reports = {
            jobs: [report_to_dict(r) for r in ParallelProbingDriver(
                self.CONFIGS, jobs=jobs, policy=policy,
                fault_plan=plan).run()]
            for jobs in (1, 2)}
        assert reports[1] == reports[2]
        hazard, safe = reports[1]
        if plan is None:
            assert hazard["failed"] and "step-limit" in hazard["error"]
            assert not safe["failed"]
        else:
            assert hazard["retries"] == 1 and safe["retries"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_session_kill_requeues_and_resumes(self, jobs, tmp_path):
        refs = {c.name: ProbingDriver(c).run() for c in self.CONFIGS}
        plan = [{"kind": "session-kill", "at": 1}]
        reports = ParallelProbingDriver(
            self.CONFIGS, jobs=jobs, journal_dir=str(tmp_path),
            fault_plan=plan).run()
        for rep in reports:
            assert not rep.failed, rep.error
            assert _answers(rep) == _answers(refs[rep.config_name])
        hazard, safe = reports
        # the kill fires at the hazard config's second probe; the
        # requeued attempt replays the journal up to it
        assert any("SessionKilled" in e and "requeued" in e
                   for e in hazard.worker_errors)
        assert hazard.tests_replayed >= 1
        assert safe.worker_errors == []


@pytest.mark.parametrize("argv", [[], ["--chaos"]],
                         ids=["campaign", "chaos"])
class TestCampaignWorkerLoss:
    def _patch(self, monkeypatch, tmp_path, argv, worker):
        monkeypatch.setitem(globals(), "MARKER", str(tmp_path / "died"))
        from repro.faults import chaos
        from repro.fuzz import campaign
        if argv:
            monkeypatch.setattr(chaos, "run_injection", worker)
        else:
            monkeypatch.setattr(campaign, "run_seed", worker)

    def test_lost_seed_is_requeued(self, argv, monkeypatch, tmp_path,
                                   capsys):
        self._patch(monkeypatch, tmp_path, argv, _exit_once)
        code = fuzz_main(argv + ["--seeds", "3", "--chaos-injections", "3",
                                 "--jobs", "2", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "3/3" in out

    def test_seed_lost_past_the_bound_is_one_error_line(
            self, argv, monkeypatch, tmp_path, capsys):
        self._patch(monkeypatch, tmp_path, argv, _exit_every_time)
        code = fuzz_main(argv + ["--seeds", "1", "--chaos-injections", "1",
                                 "--jobs", "2", "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: seed 0: worker lost 3 time(s)")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
