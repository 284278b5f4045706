"""Persistent verdict cache (paper §IV-B, "every candidate executable
is hashed ... reuses the recorded test verdict").

The in-driver executable-hash cache dies with the process, which makes
re-probing after a restart pay the full test bill again.  This module
stores verdicts durably on disk so they are shared across benchmark
configurations, probing strategies, driver restarts, and worker
processes of the parallel engine.

Key scheme
----------
A verdict is keyed by ``<config fingerprint>:<exe hash>``:

* the **config fingerprint** hashes the serialized
  :class:`~repro.oraql.config.BenchmarkConfig` together with a cache
  schema version, so verdicts can never leak between benchmarks whose
  sources, flags, or run setup differ, nor across incompatible cache
  layouts;
* the **exe hash** is the compiler's deterministic content hash of the
  produced executable (same config + same sequence ⇒ same hash, the
  invariant ``tests/test_oraql_parallel.py`` pins down).

Storage is an append-only :class:`~repro.records.RecordLog`: one
``{"v": ..., "key": ..., "ok": ...}`` record per line.  Appends of a
single short line are atomic enough for concurrent writers on POSIX
(each worker of the parallel engine opens the file in append mode and
writes one line per verdict); only compaction fsyncs.

Answer records
--------------
Beside the verdicts the file holds **answer records** (``"t":
"answers"``, see :mod:`repro.oraql.replay`): a probe's answer log —
the number of unique queries it asked and the ones it answered
may-alias — and the exe hash it built.  Their key is
``<config fingerprint>:<setup digest>``, because an answer log, unlike
an exe hash, does not prove itself once the compiler's code or settings
change.  Each record also carries the code digest it was written
under; on load, a record with another code digest is ignored (not
corrupt), and compaction drops it like a foreign-schema record.

Baseline records
----------------
A **baseline record** (``"t": "baseline"``) says that the baseline
executable (ORAQL off) ran and verified against the configuration's
reference.  It is keyed like a verdict, ``<config fingerprint>:<exe
hash>``, and needs no code digest, because an exe hash proves itself.
The driver reads it to skip the baseline run of a warm session.  It is
kept apart from the probe verdicts: a probe whose executable equals the
baseline's still books its own verdict, and a baseline lookup counts
neither as a hit nor as a miss.  Like answer records, a baseline record
is never trusted without its checksum.

Robustness: a shared mutable file on a fleet *will* get torn appends,
truncated tails, and bit rot.  New records therefore carry a CRC-32 of
their canonical serialization; on load, undecodable lines, CRC
mismatches, and malformed records are skipped and counted
(:attr:`VerdictCache.corrupt_records`) — never trusted, never fatal.
``OSError`` during load/refresh degrades to an empty view instead of
killing the probing session, and :meth:`VerdictCache.compact` rewrites
the append log to one valid record per key (atomic rename).
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..records import (RecordLog, answer_log, encode_record, parse_record,
                       pop_crc)
from .config import BenchmarkConfig
from .replay import AnswerLog, code_digest

#: bump when the key scheme or record layout changes; old records are
#: ignored rather than misinterpreted
CACHE_SCHEMA_VERSION = 1

#: default file name inside ``--cache-dir``
CACHE_FILENAME = "verdicts.jsonl"


def config_fingerprint(config: BenchmarkConfig) -> str:
    """Stable digest identifying one benchmark configuration.

    Hashes the full JSON serialization (sources, flags, argv, probe
    scope, references, ...) plus the cache schema version: any change
    that could alter compilation or verification changes the key space.
    """
    h = hashlib.sha256()
    h.update(f"oraql-verdict-cache-v{CACHE_SCHEMA_VERSION}\n".encode())
    h.update(config.to_json().encode())
    return h.hexdigest()[:16]


def _line(rec: dict) -> str:
    """One cache line: ``rec`` under the schema version, CRC'd."""
    return encode_record({"v": CACHE_SCHEMA_VERSION, **rec})


def _verdict_record(key: str, ok: bool, triage: Optional[str]) -> dict:
    rec = {"key": key, "ok": ok}
    if triage is not None:
        rec["triage"] = triage
    return rec


def _answer_record(key: str, log: AnswerLog, exe_hash: str) -> dict:
    n, pess = log
    return {"t": "answers", "key": key, "code": code_digest(), "n": n,
            "pess": sorted(pess), "exe": exe_hash}


class VerdictCache:
    """On-disk test-verdict store shared across configs and restarts."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, CACHE_FILENAME)
        #: key -> (ok, triage or None)
        self._mem: Dict[str, Tuple[bool, Optional[str]]] = {}
        #: answer key -> {answer log: exe hash}
        self._answers: Dict[str, Dict[AnswerLog, str]] = {}
        #: keys of baselines that ran and verified
        self._baselines: Set[str] = set()
        self.hits = 0
        self.misses = 0
        #: undecodable / CRC-failed / malformed lines skipped on load
        self.corrupt_records = 0
        #: appends lost to OSError (the session keeps going)
        self.dropped_writes = 0
        #: load/refresh attempts that failed wholesale with OSError
        self.load_errors = 0
        self._log = RecordLog(self.path)
        self._load()

    # -- persistence -----------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        self.corrupt_records = 0
        try:
            lines = self._log.read()
        except OSError:
            # an unreadable cache is a cold cache, not a crash
            self.load_errors += 1
            return
        for line in lines:
            self._ingest_line(line)

    def _ingest_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        rec = parse_record(line)
        if rec is None:
            # torn concurrent write or truncated final line
            self.corrupt_records += 1
            return
        if rec.get("v") != CACHE_SCHEMA_VERSION:
            return  # foreign schema: ignored, not corrupt
        crc = pop_crc(rec)
        if crc is False:
            self.corrupt_records += 1
            return
        kind, key = rec.get("t"), rec.get("key")
        # an answer log or a baseline is never trusted without its
        # checksum; a verdict written before checksums is
        if kind == "answers":
            log = answer_log(rec)
            if crc is None or log is None or not isinstance(key, str) \
                    or not isinstance(rec.get("code"), str):
                self.corrupt_records += 1
            elif rec["code"] == code_digest():  # else other code's: ignored
                n, pess, exe = log
                self._answers.setdefault(key, {})[(n, pess)] = exe
        elif kind == "baseline":
            if crc is None or not isinstance(key, str):
                self.corrupt_records += 1
            else:
                self._baselines.add(key)
        elif isinstance(key, str) and isinstance(rec.get("ok"), bool):
            triage = rec.get("triage")
            self._mem[key] = (rec["ok"], triage if isinstance(triage, str)
                              else None)
        else:
            self.corrupt_records += 1

    def refresh(self) -> None:
        """Re-read records other processes appended since the load."""
        self._load()

    def compact(self) -> Tuple[int, int]:
        """Rewrite the append log to one valid record per key.

        Drops superseded duplicates, corrupt lines, foreign-schema
        records and answer records of other code, and keeps every
        answer record of this code and every baseline record; the
        replacement is atomic
        (write-temp + rename), so concurrent readers see either the old
        or the new file, never a partial one.  Returns
        ``(lines_before, lines_after)``.

        Concurrent-reader guarantee: compaction never makes a verdict
        another process could already observe disappear or change.  A
        reader that opened the file before the rename keeps reading the
        old inode to its end (POSIX rename semantics — no torn mix of
        old and new bytes); a reader that opens after the rename sees
        the compacted file, which contains every key of the old one
        (compaction drops only *superseded duplicates* of a key, never
        the key's surviving record); and a reader's :meth:`refresh` at
        any point around the rename therefore yields the same
        ``get_record`` answers.  Writers racing a compaction can
        lose *their in-flight append* (the rename replaces the file they
        appended to) — re-putting after :meth:`refresh` restores it —
        so the service runs compaction only from the cache owner, never
        from probing workers."""
        self.refresh()
        before = 0
        if os.path.exists(self.path):
            try:
                before = len(self._log.read())
            except OSError:
                self.load_errors += 1
        lines = [_line(_verdict_record(key, *self._mem[key]))
                 for key in sorted(self._mem)]
        lines += [_line(_answer_record(key, log, exe))
                  for key in sorted(self._answers)
                  for log, exe in self._answers[key].items()]
        lines += [_line({"t": "baseline", "key": key})
                  for key in sorted(self._baselines)]
        try:
            self._log.replace("".join(line + "\n" for line in lines))
        except OSError:
            self.dropped_writes += 1
        self.corrupt_records = 0
        return before, (len(self._mem) + self.answer_records
                        + len(self._baselines))

    def _append(self, rec: dict) -> None:
        try:
            self._log.append(_line(rec))
        except OSError:
            # a full/readonly disk must not kill the probing session;
            # the record just isn't shared
            self.dropped_writes += 1

    # -- the cache interface ---------------------------------------------
    @staticmethod
    def key(fingerprint: str, exe_hash: str) -> str:
        return f"{fingerprint}:{exe_hash}"

    @staticmethod
    def answer_key(fingerprint: str, setup: str) -> str:
        """Answer records' key: config fingerprint and the compiler's
        :func:`~repro.oraql.replay.setup_digest`."""
        return f"{fingerprint}:{setup}"

    def answers(self, key: str) -> List[Tuple[int, FrozenSet[int], str]]:
        """Every ``(n, may-alias indices, exe hash)`` stored under
        ``key`` (not counted as verdict lookups)."""
        return [(n, pess, exe) for (n, pess), exe
                in self._answers.get(key, {}).items()]

    def put_answers(self, key: str, log: AnswerLog, exe_hash: str) -> None:
        """Store one answer log and the exe hash it built."""
        table = self._answers.setdefault(key, {})
        if table.get(log) == exe_hash:
            return
        table[log] = exe_hash
        self._append(_answer_record(key, log, exe_hash))

    def has_baseline(self, key: str) -> bool:
        """Whether the baseline keyed ``key`` (:meth:`key`) ran and
        verified (not counted as a verdict lookup)."""
        return key in self._baselines

    def put_baseline(self, key: str) -> None:
        """Record that the baseline keyed ``key`` ran and verified."""
        if key in self._baselines:
            return
        self._baselines.add(key)
        self._append({"t": "baseline", "key": key})

    @property
    def answer_records(self) -> int:
        return sum(len(t) for t in self._answers.values())

    def get_record(self, key: str) -> Optional[Tuple[bool, Optional[str]]]:
        """The verdict stored under ``key`` as ``(ok, triage-or-None)``,
        or ``None``; counts a hit or a miss."""
        entry = self._mem.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, key: str, ok: bool, triage: Optional[str] = None) -> None:
        prev = self._mem.get(key)
        if prev is not None and prev[0] == ok \
                and (triage is None or prev[1] == triage):
            return
        self._mem[key] = (ok, triage)
        self._append(_verdict_record(key, ok, triage))

    def stats(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "records": len(self._mem),
            "answer_records": self.answer_records,
            "baseline_records": len(self._baselines),
            "hits": self.hits,
            "misses": self.misses,
            "corrupt_records": self.corrupt_records,
            "dropped_writes": self.dropped_writes,
            "load_errors": self.load_errors,
        }

    def __len__(self) -> int:
        return len(self._mem)

    def __contains__(self, key: str) -> bool:
        return key in self._mem
