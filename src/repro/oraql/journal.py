"""Append-only probing session journal (crash-durable resume).

A long probing campaign must survive the driver being killed — by an
operator, the OOM killer, or an exhausted budget — without paying the
whole test bill again.  The journal checkpoints **every probe verdict**
as one JSON line; because the probing strategies are deterministic
functions of the verdicts they observe, replaying the journaled
verdicts into the driver's executable-hash cache reproduces the exact
same search path: a resumed session is bit-identical to an
uninterrupted one, with replayed probes served from cache instead of
re-run.

Record format
-------------
One JSON object per line.  Every record carries a CRC-32 of its
canonical serialization (sorted keys, no whitespace, ``crc`` field
excluded), so torn appends and bit rot are *detected and skipped*, not
misread:

* ``{"t": "header", "v": 1, "fp": ..., "strategy": ..., "setup": ...}``
  — first line;
  a resume refuses to replay a journal whose *valid* header names a
  different fingerprint, strategy, or schema version
  (:class:`~repro.oraql.errors.JournalError` — that is a wrong-config
  foot-gun, not corruption).  A torn or missing header is corruption:
  it is counted, :attr:`SessionJournal.header_lost` is set, and any
  CRC-valid probe records that follow are still replayed — verdicts are
  keyed by executable hash, so foreign records are inert;
* ``{"t": "probe", "exe": ..., "ok": ..., "n": ..., "triage": ...,
  "pess": [...]}`` — one per newly learned verdict, appended *before*
  the verdict is acted on, flushed + fsync'd so a kill at any
  instruction loses at most the probe in flight.  ``n`` and ``pess``
  are the probe's answer log (:mod:`repro.oraql.replay`);
* ``{"t": "answers", "exe": ..., "n": ..., "pess": [...]}`` — an answer
  log whose executable's verdict is already journaled.  Answer logs
  seed a resumed session's answer memo only when the header is intact
  and its ``setup`` digest is the resuming compiler's: an exe hash
  proves itself, an answer log does not once the compiler changes;
* ``{"t": "measure", "exe": ..., "cycles": ..., "ok": ...}`` — one per
  cycle measurement of the importance driver (same durability contract
  as probes; replayed into :attr:`SessionJournal.measured`);
* ``{"t": "done", "pessimistic": [...]}`` — terminal marker.

Records of unknown kinds are skipped (not counted as corruption), so a
journal written by a newer schema minor-extension replays what it can.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .cache import config_fingerprint
from .config import BenchmarkConfig
from .errors import JournalError
from .replay import setup_digest

JOURNAL_SCHEMA_VERSION = 1


def _crc_of(rec: dict) -> int:
    canon = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canon.encode())


def _encode(rec: dict) -> str:
    rec = dict(rec)
    rec["crc"] = _crc_of(rec)
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _decode(line: str) -> Optional[dict]:
    """Parse and CRC-check one journal line; None = corrupt/torn."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    if not isinstance(rec, dict) or "crc" not in rec:
        return None
    crc = rec.pop("crc")
    if crc != _crc_of(rec):
        return None
    return rec


def encode_record(rec: dict) -> str:
    """One CRC-carrying journal line (without the trailing newline).

    Public so other append-only logs — the service's job table — share
    the journal's torn-write detection instead of reinventing it."""
    return _encode(rec)


def decode_record(line: str) -> Optional[dict]:
    """Inverse of :func:`encode_record`; ``None`` = corrupt/torn line."""
    return _decode(line)


class SessionJournal:
    """One probing session's durable verdict log.

    ``resume=False`` starts a fresh journal (truncating any previous
    session's file); ``resume=True`` replays an existing journal into
    :attr:`replayed` and keeps appending to it.  Either way the journal
    stays open for appends for the rest of the session.
    """

    def __init__(self, path: str, fingerprint: str, strategy: str,
                 resume: bool = False, setup: Optional[str] = None):
        self.path = path
        self.fingerprint = fingerprint
        self.strategy = strategy
        #: the compiler setup (:func:`~repro.oraql.replay.setup_digest`)
        #: the journal's answer logs hold for: ``setup`` (default: a
        #: default Compiler's) for a fresh journal, the header's on
        #: resume (None when the header lacks one or is lost)
        self.setup: Optional[str] = setup or setup_digest()
        #: exe hash -> (ok, unique_queries, triage) replayed on resume
        self.replayed: Dict[str, Tuple[bool, int, str]] = {}
        #: (n, may-alias indices, exe hash) answer logs replayed on resume
        self.answer_logs: List[Tuple[int, FrozenSet[int], str]] = []
        #: exe hash -> (cycles, ok) cycle measurements replayed on
        #: resume (importance sessions)
        self.measured: Dict[str, Tuple[float, bool]] = {}
        #: torn / CRC-failed / undecodable lines skipped during replay
        self.corrupt_records = 0
        #: appends lost to OSError (full/readonly disk) — the session
        #: keeps probing, it just becomes less resumable
        self.dropped_appends = 0
        #: True when a resumed journal's header line was torn/missing —
        #: the file is still replayed (and appended to), just no longer
        #: provably bound to this session by its header
        self.header_lost = False
        #: True when the replayed journal ends in a ``done`` record
        self.completed = False
        self.pessimistic_from_done: Optional[list] = None
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if resume and os.path.exists(path):
            self._replay()
        else:
            with open(path, "w") as f:
                f.write(_encode({"t": "header",
                                 "v": JOURNAL_SCHEMA_VERSION,
                                 "fp": fingerprint,
                                 "strategy": strategy,
                                 "setup": self.setup}) + "\n")
                f.flush()
                os.fsync(f.fileno())

    @classmethod
    def for_config(cls, journal_dir: str, config: BenchmarkConfig,
                   strategy: str, resume: bool = False,
                   setup: Optional[str] = None) -> "SessionJournal":
        """The canonical per-(config, strategy) journal file inside a
        journal directory — what ``oraql --journal DIR`` uses."""
        fp = config_fingerprint(config)
        name = f"{config.name}-{fp}-{strategy}.journal.jsonl"
        return cls(os.path.join(journal_dir, name), fp, strategy,
                   resume=resume, setup=setup)

    # -- replay ------------------------------------------------------------
    def _replay(self) -> None:
        try:
            with open(self.path, "r") as f:
                lines = f.readlines()
        except OSError as e:
            raise JournalError(f"cannot read journal {self.path}: {e}")
        header_seen = False
        self.setup = None
        for line in lines:
            line = line.strip()
            if not line:
                continue
            rec = _decode(line)
            if rec is None:
                self.corrupt_records += 1
                continue
            kind = rec.get("t")
            if kind == "header":
                if rec.get("v") != JOURNAL_SCHEMA_VERSION \
                        or rec.get("fp") != self.fingerprint \
                        or rec.get("strategy") != self.strategy:
                    raise JournalError(
                        f"journal {self.path} belongs to a different "
                        f"session (fp {rec.get('fp')!r} strategy "
                        f"{rec.get('strategy')!r} v{rec.get('v')!r}; "
                        f"expected fp {self.fingerprint!r} strategy "
                        f"{self.strategy!r} v{JOURNAL_SCHEMA_VERSION})")
                header_seen = True
                self.setup = rec.get("setup")
            elif kind == "probe":
                exe, ok, n = rec.get("exe"), rec.get("ok"), rec.get("n")
                if isinstance(exe, str) and isinstance(ok, bool) \
                        and isinstance(n, int) \
                        and ("pess" not in rec or self._take_log(rec)):
                    self.replayed[exe] = (ok, n,
                                          rec.get("triage") or
                                          ("ok" if ok else "wrong-output"))
                else:
                    self.corrupt_records += 1
            elif kind == "answers":
                if not self._take_log(rec):
                    self.corrupt_records += 1
            elif kind == "measure":
                exe, cycles, ok = rec.get("exe"), rec.get("cycles"), \
                    rec.get("ok")
                if isinstance(exe, str) and isinstance(cycles, (int, float)) \
                        and isinstance(ok, bool):
                    self.measured[exe] = (float(cycles), ok)
                else:
                    self.corrupt_records += 1
            elif kind == "done":
                self.completed = True
                self.pessimistic_from_done = rec.get("pessimistic")
        if not header_seen:
            # A torn/missing header is damage, not a wrong-config error:
            # replay what survived and keep going.  The damage is
            # already tallied in corrupt_records (unless the file was
            # simply empty, which is its own kind of loss).
            self.header_lost = True
            if not lines:
                self.corrupt_records += 1

    def _take_log(self, rec: dict) -> bool:
        """Collect a record's answer log; False when it is malformed."""
        exe, n, pess = rec.get("exe"), rec.get("n"), rec.get("pess")
        if not isinstance(exe, str) or not isinstance(n, int) \
                or not isinstance(pess, list) or not all(
                    isinstance(i, int) and 0 <= i < n for i in pess):
            return False
        self.answer_logs.append((n, frozenset(pess), exe))
        return True

    # -- appends -----------------------------------------------------------
    def _append(self, rec: dict) -> None:
        try:
            with open(self.path, "a") as f:
                f.write(_encode(rec) + "\n")
                f.flush()
                os.fsync(f.fileno())
        except OSError:
            # a full/readonly disk must not kill the probing session;
            # it only degrades resumability
            self.dropped_appends += 1

    def record_probe(self, exe_hash: str, ok: bool, unique_queries: int,
                     triage: str,
                     pessimistic: Optional[Iterable[int]] = None) -> None:
        rec = {"t": "probe", "exe": exe_hash, "ok": ok,
               "n": unique_queries, "triage": triage}
        if pessimistic is not None:
            rec["pess"] = sorted(pessimistic)
        self._append(rec)

    def record_answers(self, exe_hash: str, unique_queries: int,
                       pessimistic: Iterable[int]) -> None:
        self._append({"t": "answers", "exe": exe_hash, "n": unique_queries,
                      "pess": sorted(pessimistic)})

    def record_measure(self, exe_hash: str, cycles: float,
                       ok: bool) -> None:
        self._append({"t": "measure", "exe": exe_hash, "cycles": cycles,
                      "ok": ok})

    def record_done(self, pessimistic_indices) -> None:
        self._append({"t": "done",
                      "pessimistic": sorted(pessimistic_indices)})
