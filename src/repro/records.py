"""One append-only JSON-lines record file and its codec.

The session journal, the verdict cache, the service's job table and the
streamed events file are each a :class:`RecordLog`.  All but the stream
(whose clients read the QueryTrace schema verbatim) write
:func:`encode_record` lines: canonical JSON carrying a CRC-32 of the
record without its ``crc`` field.  The trace exporter writes its files
with :meth:`RecordLog.replace`.  Only the stdlib is imported, so
:mod:`repro.trace` can use this module without importing
:mod:`repro.oraql`.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from typing import FrozenSet, List, Optional, Tuple


def canonical(rec: dict) -> str:
    """A record's one-line canonical serialization."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def record_crc(rec: dict) -> int:
    """CRC-32 of ``rec``'s canonical form (``rec`` without ``crc``)."""
    return zlib.crc32(canonical(rec).encode())


def encode_record(rec: dict) -> str:
    """One CRC-carrying line (without the trailing newline)."""
    return canonical({**rec, "crc": record_crc(rec)})


def parse_record(line: str) -> Optional[dict]:
    """A line's JSON object; ``None`` for a torn or non-object line."""
    try:
        rec = json.loads(line)
    except ValueError:
        return None
    return rec if isinstance(rec, dict) else None


def pop_crc(rec: dict) -> Optional[bool]:
    """Remove ``rec``'s ``crc`` field and check it: ``None`` when the
    record carries none (or a null one), else whether it matches."""
    crc = rec.pop("crc", None)
    return None if crc is None else crc == record_crc(rec)


def decode_record(line: str) -> Optional[dict]:
    """Inverse of :func:`encode_record`; ``None`` = torn, undecodable
    or CRC-less line, or a CRC mismatch."""
    rec = parse_record(line)
    return rec if rec is not None and pop_crc(rec) else None


def answer_log(rec: dict) -> Optional[Tuple[int, FrozenSet[int], str]]:
    """A record's answer log ``(n, may-alias indices, exe hash)``, or
    ``None`` when its ``n``, ``pess`` or ``exe`` field is malformed."""
    exe, n, pess = rec.get("exe"), rec.get("n"), rec.get("pess")
    if not isinstance(exe, str) or not isinstance(n, int) \
            or not isinstance(pess, list) or not all(
                isinstance(i, int) and 0 <= i < n for i in pess):
        return None
    return n, frozenset(pess), exe


class RecordLog:
    """An append-only file of one record per line.  ``sync`` fsyncs
    every :meth:`start` and :meth:`append`.  Every method raises
    ``OSError``; the file's owner decides whether that is fatal."""

    def __init__(self, path: str, sync: bool = False):
        self.path = path
        self.sync = sync
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def start(self, first: Optional[str] = None) -> None:
        """Truncate the file, leaving only ``first`` (a line) if given."""
        with open(self.path, "w") as f:
            if first is not None:
                self._write(f, first)

    def append(self, line: str) -> None:
        with open(self.path, "a") as f:
            self._write(f, line)

    def _write(self, f, line: str) -> None:
        f.write(line + "\n")
        f.flush()
        if self.sync:
            os.fsync(f.fileno())

    def read(self) -> List[str]:
        """Every line, newlines kept."""
        with open(self.path, "r") as f:
            return f.readlines()

    def replace(self, text: str) -> None:
        """Atomically swap the file's content for ``text``: a temp file
        beside it, synced, then renamed over it, so a reader (or a kill
        mid-write) sees the old or the new file, never a mix."""
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(self.path) or ".",
            prefix=f".{os.path.basename(self.path)}.")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
