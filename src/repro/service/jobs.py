"""Report serialization and the durable job table.

The server's unit of work is a :class:`~repro.oraql.parallel.JobSpec`
— everything a worker process needs to run one probing (or importance)
session, already resolved.  Specs and results are checkpointed to an
append-only, CRC-guarded :class:`~repro.records.RecordLog`, the job
table (``jobs.jsonl`` under the state directory; flushed, not fsync'd),
which is what makes a killed server restartable: ``--resume`` replays
the table, serves completed results from it, and resubmits incomplete
jobs — each of which then replays its own per-job session journal, so
the resumed fleet's reports are bit-identical to an uninterrupted run.

Reports reach the job table and the wire as plain dicts
(:func:`report_to_dict` / :func:`report_from_dict`), serialized by the
server from the report its worker returned: every scalar and
collection field of :class:`~repro.oraql.driver.ProbingReport`
round-trips; the live compiler objects were already dropped by
``detach_for_transport``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional

from ..oraql.driver import ProbingReport
from ..oraql.parallel import JobSpec
from ..oraql.sequence import DecisionSequence
from ..records import RecordLog, decode_record, encode_record

#: live/driver-side fields that do not cross the wire
_REPORT_SKIP = frozenset({"final_program", "baseline_program",
                          "pessimistic_records"})


# -- report serialization -----------------------------------------------------

def report_to_dict(report: ProbingReport) -> dict:
    """A JSON-able view of a (detached) probing report."""
    out: Dict[str, object] = {}
    for f in fields(ProbingReport):
        if f.name in _REPORT_SKIP:
            continue
        value = getattr(report, f.name)
        if f.name == "final_sequence":
            value = list(value.bits)
        out[f.name] = value
    return out


def report_from_dict(d: dict) -> ProbingReport:
    """Inverse of :func:`report_to_dict`.

    Unknown keys (a newer server's extensions) are ignored so old
    clients keep reading new servers' results."""
    known = {f.name for f in fields(ProbingReport)} - _REPORT_SKIP
    kwargs = {k: v for k, v in d.items() if k in known}
    kwargs["final_sequence"] = DecisionSequence(
        kwargs.get("final_sequence") or [])
    report = ProbingReport(
        config_name=kwargs.pop("config_name", "?"),
        fully_optimistic=kwargs.pop("fully_optimistic", False),
        final_sequence=kwargs.pop("final_sequence"),
        pessimistic_indices=kwargs.pop("pessimistic_indices", []))
    for key, value in kwargs.items():
        setattr(report, key, value)
    return report


def importance_report_to_dict(report) -> dict:
    """A JSON-able view of an importance report (phase-1 probing report
    nested under ``"probing"``)."""
    out = {
        "config_name": report.config_name,
        "strategy": report.strategy,
        "significant_percent": report.significant_percent,
        "recover_percent": report.recover_percent,
        "unique_queries": report.unique_queries,
        "safe_queries": report.safe_queries,
        "pessimistic_indices": list(report.pessimistic_indices),
        "baseline_cycles": report.baseline_cycles,
        "optimal_cycles": report.optimal_cycles,
        "important_cycles": report.important_cycles,
        "important": [asdict(q) for q in report.important],
        "dropped": list(report.dropped),
        "refinement_rounds": report.refinement_rounds,
        "compiles": report.compiles,
        "measurements_run": report.measurements_run,
        "measurements_cached": report.measurements_cached,
        "measurements_replayed": report.measurements_replayed,
        "partial": report.partial,
        "recovered_percent": report.recovered_percent,
    }
    if report.probing is not None:
        out["probing"] = report_to_dict(report.probing)
    return out


#: terminal job states
DONE_STATES = ("done", "failed", "cancelled")


@dataclass
class JobRecord:
    """One job's current state in the table."""

    spec: JobSpec
    status: str = "pending"   # pending | running | done | failed | cancelled
    report: Optional[dict] = None
    error: Optional[str] = None
    #: worker losses, appended by the worker pool as they happen
    #: (mirrors ProbingReport.worker_errors)
    worker_errors: List[str] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.status in DONE_STATES

    @property
    def attempts(self) -> int:
        """Worker attempts consumed so far (> 0 after a requeue): the
        pool records one loss per attempt it gives up on."""
        return len(self.worker_errors)

    def public_view(self) -> dict:
        """What ``status`` queries see."""
        return {"id": self.spec.id, "kind": self.spec.kind,
                "config": self.spec.config_name, "status": self.status,
                "attempts": self.attempts,
                "worker_errors": list(self.worker_errors)}


class JobTable:
    """Durable job registry: an append-only CRC'd JSONL journal.

    Records: ``{"t": "job", "spec": {...}}`` on admit,
    ``{"t": "jobdone", "id", "status", "report"/"error"}`` on a
    terminal transition.  Corrupt (torn) lines are skipped and counted,
    like every other durability file here, and so is a record whose job
    id is not a valid :class:`~repro.oraql.parallel.JobSpec` id.
    ``resume=True`` replays the journal: finished jobs keep their
    results; unfinished ones are returned by :meth:`unfinished` for the
    scheduler to resubmit.
    """

    def __init__(self, path: str, resume: bool = False):
        self.path = path
        self.jobs: Dict[str, JobRecord] = {}
        self.corrupt_records = 0
        self.dropped_appends = 0
        #: ids replayed as already finished (served from the table)
        self.replayed_done: List[str] = []
        self._log = RecordLog(path)
        if resume:
            self._replay()
        else:
            try:
                self._log.start()
            except OSError:
                self.dropped_appends += 1

    def _replay(self) -> None:
        try:
            lines = self._log.read()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec = decode_record(line)
            if rec is None:
                self.corrupt_records += 1
                continue
            kind = rec.get("t")
            if kind == "job" and isinstance(rec.get("spec"), dict):
                spec_dict = dict(rec["spec"])
                strategy = spec_dict.pop("strategy", "chunked")
                try:
                    spec = JobSpec.from_dict(spec_dict)
                except (TypeError, ValueError):
                    self.corrupt_records += 1
                    continue
                # set past validation: a strategy retired since the
                # job was admitted is not corruption (see below)
                spec.strategy = strategy
                self.jobs[spec.id] = JobRecord(spec)
            elif kind == "jobdone":
                if not isinstance(rec.get("id"), str):
                    self.corrupt_records += 1
                    continue
                job = self.jobs.get(rec["id"])
                if job is None:
                    continue
                job.status = rec.get("status", "done")
                job.report = rec.get("report")
                job.error = rec.get("error")
                self.replayed_done.append(job.spec.id)
            # unknown kinds: skipped, not corruption (schema growth)
        # an unfinished job naming a strategy this server no longer
        # registers cannot run: it ends failed with the admission
        # error, so status/wait still see it
        for job in self.unfinished():
            try:
                JobSpec.from_dict(job.spec.to_dict())
            except ValueError as e:
                self.finish(job.spec.id, "failed", error=str(e))

    def _append(self, rec: dict) -> None:
        try:
            self._log.append(encode_record(rec))
        except OSError:
            self.dropped_appends += 1

    # -- mutation ----------------------------------------------------------
    def admit(self, spec: JobSpec) -> JobRecord:
        if spec.id in self.jobs:
            raise ValueError(f"duplicate job id {spec.id!r}")
        job = JobRecord(spec)
        self.jobs[spec.id] = job
        self._append({"t": "job", "spec": spec.to_dict()})
        return job

    def finish(self, job_id: str, status: str,
               report: Optional[dict] = None,
               error: Optional[str] = None) -> None:
        job = self.jobs[job_id]
        job.status = status
        job.report = report
        job.error = error
        rec: Dict[str, object] = {"t": "jobdone", "id": job_id,
                                  "status": status}
        if report is not None:
            rec["report"] = report
        if error is not None:
            rec["error"] = error
        self._append(rec)

    # -- views -------------------------------------------------------------
    def get(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.get(job_id)

    def unfinished(self) -> List[JobRecord]:
        """Jobs replayed from the journal without a terminal record —
        what a resumed server must resubmit, in admit order."""
        return [job for job in self.jobs.values() if not job.finished]

    def next_job_number(self) -> int:
        """1 + the highest ``job-N`` the table has seen, so a resumed
        server never reissues a replayed id."""
        highest = 0
        for job_id in self.jobs:
            if job_id.startswith("job-"):
                try:
                    highest = max(highest, int(job_id[4:]))
                except ValueError:
                    pass
        return highest + 1

    def __len__(self) -> int:
        return len(self.jobs)
