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

Storage is append-only JSON-lines: one ``{"v": ..., "key": ...,
"ok": ...}`` record per line.  Appends of a single short line are
atomic enough for concurrent writers on POSIX (each worker of the
parallel engine opens the file in append mode and writes one line per
verdict).

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
import json
import os
import tempfile
import zlib
from typing import Dict, FrozenSet, List, Optional, Tuple

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


def _record_crc(rec: dict) -> int:
    canon = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode())


class VerdictCache:
    """On-disk test-verdict store shared across configs and restarts."""

    def __init__(self, cache_dir: str, filename: str = CACHE_FILENAME):
        self.cache_dir = cache_dir
        self.path = os.path.join(cache_dir, filename)
        #: key -> (ok, triage or None)
        self._mem: Dict[str, Tuple[bool, Optional[str]]] = {}
        #: answer key -> {answer log: exe hash}
        self._answers: Dict[str, Dict[AnswerLog, str]] = {}
        self.hits = 0
        self.misses = 0
        #: undecodable / CRC-failed / malformed lines skipped on load
        self.corrupt_records = 0
        #: appends lost to OSError (the session keeps going)
        self.dropped_writes = 0
        #: load/refresh attempts that failed wholesale with OSError
        self.load_errors = 0
        os.makedirs(cache_dir, exist_ok=True)
        self._load()

    @classmethod
    def shard_for(cls, root_dir: str, fingerprint: str) -> "VerdictCache":
        """The per-config-fingerprint cache shard under ``root_dir``.

        The service keys its verdict store by fingerprint so concurrent
        sessions only contend on the shard of the configuration they are
        actually probing: shard files live at
        ``root_dir/<fp[:2]>/<fp>.jsonl`` (the two-character fan-out keeps
        any one directory small on wide fleets).  Every session of the
        same configuration — concurrent or not — opens the same shard,
        which is what makes N simultaneous sessions of one workload
        share verdicts instead of re-paying the test bill N times."""
        return cls(os.path.join(root_dir, fingerprint[:2]),
                   filename=f"{fingerprint}.jsonl")

    # -- persistence -----------------------------------------------------
    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        self.corrupt_records = 0
        try:
            with open(self.path, "r") as f:
                for line in f:
                    self._ingest_line(line)
        except OSError:
            # an unreadable cache is a cold cache, not a crash
            self.load_errors += 1

    def _ingest_line(self, line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            rec = json.loads(line)
        except ValueError:
            # torn concurrent write or truncated final line
            self.corrupt_records += 1
            return
        if not isinstance(rec, dict):
            self.corrupt_records += 1
            return
        if rec.get("v") != CACHE_SCHEMA_VERSION:
            return  # foreign schema: ignored, not corrupt
        crc = rec.pop("crc", None)
        if crc is not None and crc != _record_crc(rec):
            self.corrupt_records += 1
            return
        if rec.get("t") == "answers":
            self._ingest_answers(rec, crc)
            return
        key, ok = rec.get("key"), rec.get("ok")
        if isinstance(key, str) and isinstance(ok, bool):
            triage = rec.get("triage")
            self._mem[key] = (ok, triage if isinstance(triage, str)
                              else None)
        else:
            self.corrupt_records += 1

    def _ingest_answers(self, rec: dict, crc: Optional[int]) -> None:
        key, n, pess, exe = (rec.get("key"), rec.get("n"), rec.get("pess"),
                             rec.get("exe"))
        if crc is None or not isinstance(key, str) \
                or not isinstance(rec.get("code"), str) \
                or not isinstance(n, int) or not isinstance(exe, str) \
                or not isinstance(pess, list) \
                or not all(isinstance(i, int) and 0 <= i < n for i in pess):
            # an answer log is never trusted without its checksum
            self.corrupt_records += 1
            return
        if rec["code"] != code_digest():
            return  # written by other code: ignored, not corrupt
        self._answers.setdefault(key, {})[(n, frozenset(pess))] = exe

    def refresh(self) -> None:
        """Re-read records other processes appended since the load."""
        self._load()

    def compact(self) -> Tuple[int, int]:
        """Rewrite the append log to one valid record per key.

        Drops superseded duplicates, corrupt lines, foreign-schema
        records and answer records of other code, and keeps every
        answer record of this code; the replacement is atomic
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
        ``get``/``get_record`` answers.  Writers racing a compaction can
        lose *their in-flight append* (the rename replaces the file they
        appended to) — re-putting after :meth:`refresh` restores it —
        so the service runs compaction only from the cache owner, never
        from probing workers."""
        self.refresh()
        before = 0
        if os.path.exists(self.path):
            try:
                with open(self.path, "r") as f:
                    before = sum(1 for _ in f)
            except OSError:
                self.load_errors += 1
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir,
                                   prefix=".verdicts-compact-")
        try:
            with os.fdopen(fd, "w") as f:
                for key in sorted(self._mem):
                    ok, triage = self._mem[key]
                    f.write(self._encode(key, ok, triage) + "\n")
                for key in sorted(self._answers):
                    for log, exe in self._answers[key].items():
                        f.write(self._encode_answers(key, log, exe) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except OSError:
            self.dropped_writes += 1
            if os.path.exists(tmp):
                os.unlink(tmp)
        self.corrupt_records = 0
        return before, len(self._mem) + self.answer_records

    # -- the cache interface ---------------------------------------------
    @staticmethod
    def key(fingerprint: str, exe_hash: str) -> str:
        return f"{fingerprint}:{exe_hash}"

    @staticmethod
    def _encode(key: str, ok: bool, triage: Optional[str] = None) -> str:
        rec = {"v": CACHE_SCHEMA_VERSION, "key": key, "ok": ok}
        if triage is not None:
            rec["triage"] = triage
        rec["crc"] = _record_crc(rec)
        return json.dumps(rec, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def _encode_answers(key: str, log: AnswerLog, exe_hash: str) -> str:
        n, pess = log
        rec = {"v": CACHE_SCHEMA_VERSION, "t": "answers", "key": key,
               "code": code_digest(), "n": n, "pess": sorted(pess),
               "exe": exe_hash}
        rec["crc"] = _record_crc(rec)
        return json.dumps(rec, sort_keys=True, separators=(",", ":"))

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
        try:
            with open(self.path, "a") as f:
                f.write(self._encode_answers(key, log, exe_hash) + "\n")
        except OSError:
            self.dropped_writes += 1

    @property
    def answer_records(self) -> int:
        return sum(len(t) for t in self._answers.values())

    def get(self, key: str) -> Optional[bool]:
        entry = self._mem.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[0]

    def get_record(self, key: str) -> Optional[Tuple[bool, Optional[str]]]:
        """Like :meth:`get` but returns ``(ok, triage-or-None)``."""
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
        try:
            with open(self.path, "a") as f:
                f.write(self._encode(key, ok, triage) + "\n")
        except OSError:
            # a full/readonly disk must not kill the probing session;
            # the verdict just isn't shared
            self.dropped_writes += 1

    def stats(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "records": len(self._mem),
            "answer_records": self.answer_records,
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
