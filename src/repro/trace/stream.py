"""Streaming trace sink: QueryTrace events appended to JSONL as they
happen.

The probing service streams job progress to its clients **in the
QueryTrace JSONL schema** (DESIGN.md §5d/§5g): a worker probing a job
runs its driver with a :class:`JsonlStreamingTrace`, which appends each
coarse session event — the ``meta`` header, one ``compile`` record per
compile boundary, the terminal ``done`` record — to an events file, a
:class:`~repro.records.RecordLog` of canonical lines without a ``crc``
field, flushed per record.  The server tails the file and forwards each
line verbatim inside an ``event`` envelope, so a service client's event
stream is readable by the exact tooling that reads ``--trace-out``
files (``python -m repro.trace summarize`` et al.).

The zero-cost contract of the base sink is unchanged: the stream only
*observes*; a streamed session's executables and verdicts are
bit-identical to an untraced one.  Write failures degrade streaming
(``dropped_writes``), never the probing session.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterator, List

from ..records import RecordLog, canonical, parse_record
from .sink import QueryTrace

#: record kinds streamed (and retained) by a non-verbose streaming
#: trace — the per-session skeleton, without the per-query firehose
COARSE_KINDS = frozenset({"meta", "compile", "replay", "done"})


class JsonlStreamingTrace(QueryTrace):
    """A :class:`QueryTrace` that appends records to ``path`` live.

    ``verbose=False`` (the service default) streams only
    :data:`COARSE_KINDS`; ``verbose=True`` streams every record the
    base sink would collect, including per-query provenance — the full
    ``--trace-out`` stream, delivered incrementally.
    """

    def __init__(self, path: str, verbose: bool = False,
                 clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock=clock, record_events=True)
        self.path = path
        self.verbose = verbose
        #: records lost to OSError (full/readonly disk); the session
        #: keeps probing, clients just see a gappy stream
        self.dropped_writes = 0
        self._log = RecordLog(path)
        # one stream per session attempt: a requeued job's retry starts
        # its event log over (tailers handle the shrink by rewinding)
        try:
            self._log.start()
        except OSError:
            self.dropped_writes += 1

    @property
    def observes_steps(self) -> bool:
        """A non-verbose stream keeps no record from inside a step."""
        return self.verbose

    def _emit(self, rec: dict) -> None:
        if not self.verbose and rec.get("t") not in COARSE_KINDS:
            return
        super()._emit(rec)
        try:
            self._log.append(canonical(rec))
        except OSError:
            self.dropped_writes += 1


class EventTail:
    """Incremental reader over a streaming events file.

    ``poll()`` returns the complete lines appended since the previous
    poll, parsed; a partial final line (a write in flight) stays
    buffered until its newline arrives.  A file that *shrank* (a
    requeued attempt restarted the stream) rewinds to the start, so the
    tail delivers the retry's events rather than silence."""

    def __init__(self, path: str):
        self.path = path
        self._offset = 0

    def poll(self) -> List[dict]:
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self._offset:
            self._offset = 0  # stream restarted
        if size == self._offset:
            return []
        try:
            with open(self.path, "r") as f:
                f.seek(self._offset)
                chunk = f.read(size - self._offset)
        except OSError:
            return []
        records: List[dict] = []
        consumed = 0
        for line in chunk.splitlines(keepends=True):
            if not line.endswith("\n"):
                break  # torn tail: re-read next poll
            consumed += len(line)
            rec = parse_record(line)  # None for a blank or damaged line
            if rec is not None:
                records.append(rec)
        self._offset += consumed
        return records


def read_stream(path: str) -> Iterator[dict]:
    """Every complete record currently in a streaming events file."""
    tail = EventTail(path)
    yield from tail.poll()
