"""Answer replay: skip a compile that earlier answers already decide.

The pipeline is deterministic, and the ORAQL pass is its only input
that varies between a session's probes.  A compile's program is
therefore fixed by the answers to the unique queries it asked, in
order (the prefix stability of paper §IV-B): the first query does not
depend on any answer, the second only on the first answer, and so on.
Take a compile that asked ``n`` unique queries and answered the ones
in ``pess`` may-alias — its **answer log** ``(n, pess)``.  A new
sequence whose first ``n`` answers are the same asks the same ``n``
queries, gets the same answers and builds the same executable, so its
``exe_hash`` (and with it the verdict) is known before compiling.

:class:`AnswerMemo` maps answer logs to ``(exe_hash, n)``.  The driver
keeps one per session and seeds it from the verdict cache's answer
records and from a resumed journal.  An exe hash proves itself; an
answer log does not once the compiler changes, so persisted logs are
keyed by :func:`setup_digest`: the package's own code, the Python
version and every :class:`~repro.oraql.compiler.Compiler` setting.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import sys
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..frontend import FrontendOptions
from .errors import ProbingError
from .verify import TRIAGE_COMPILER_ERROR

#: an answer log: (unique queries asked, indices answered may-alias)
AnswerLog = Tuple[int, FrozenSet[int]]


class AnswerReplayError(ProbingError):
    """Two answer logs claim the same sequence, or a compile built a
    different executable than its answer log recorded.  Under a
    deterministic pipeline neither can happen, so the session stops
    instead of picking one."""

    def __init__(self, message: str, explain: Optional[str] = None):
        super().__init__(message, explain=explain,
                         triage=TRIAGE_COMPILER_ERROR)


@lru_cache(maxsize=None)
def code_digest() -> str:
    """Digest of the ``repro`` package's ``.py`` sources and the Python
    version, computed once per process (a few milliseconds)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256(f"python {sys.version}\n".encode())
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        paths += [os.path.join(dirpath, f) for f in filenames
                  if f.endswith(".py")]
    for path in sorted(paths):
        h.update(f"{os.path.relpath(path, root)}\n".encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def setup_digest(frontend_options=None, invalidation: str = "fine",
                 verify_analyses: bool = False) -> str:
    """The compiler setup an answer log is valid for: :func:`code_digest`
    plus every :class:`~repro.oraql.compiler.Compiler` setting.  The
    defaults are a default ``Compiler()``'s."""
    opts = sorted(vars(frontend_options or FrontendOptions()).items())
    text = (f"{code_digest()}|frontend={opts}|invalidation={invalidation}"
            f"|verify_analyses={verify_analyses}")
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def answer_log(bits: Sequence[int], n: int) -> AnswerLog:
    """The answer log of a compile that asked ``n`` unique queries under
    the sequence ``bits`` (queries past its end are answered no-alias)."""
    return n, frozenset(i for i, b in enumerate(bits[:n]) if not b)


class AnswerMemo:
    """Answer log -> exe hash, looked up by decision sequence."""

    def __init__(self):
        #: n -> {may-alias indices below n: exe hash}
        self._by_n: Dict[int, Dict[FrozenSet[int], str]] = {}

    def add(self, log: AnswerLog, exe_hash: str) -> None:
        """Record that ``log`` builds ``exe_hash``; a different hash for
        a known log is an :class:`AnswerReplayError`."""
        n, pess = log
        table = self._by_n.setdefault(n, {})
        known = table.setdefault(pess, exe_hash)
        if known != exe_hash:
            raise AnswerReplayError(
                "a compile built a different executable than its answer "
                "log recorded — non-deterministic compilation",
                explain=f"n={n} may-alias={sorted(pess)} -> "
                        f"{known[:12]} vs {exe_hash[:12]}")

    def update(self, entries: Iterable[Tuple[int, Iterable[int], str]]
               ) -> None:
        for n, pess, exe_hash in entries:
            self.add((n, frozenset(pess)), exe_hash)

    def lookup(self, bits: Sequence[int]) -> Optional[Tuple[str, int]]:
        """``(exe_hash, n)`` of the one entry whose first ``n`` answers
        ``bits`` repeats, or None.  Two matching entries are an
        :class:`AnswerReplayError`."""
        zeros = [i for i, b in enumerate(bits) if not b]
        hits = []
        for n, table in self._by_n.items():
            exe_hash = table.get(
                frozenset(zeros[:bisect.bisect_left(zeros, n)]))
            if exe_hash is not None:
                hits.append((exe_hash, n))
        if len(hits) > 1:
            raise AnswerReplayError(
                "a decision sequence repeats the answers of two different "
                "compiles — non-deterministic compilation",
                explain="; ".join(f"n={n} -> {exe[:12]}"
                                  for exe, n in sorted(hits,
                                                       key=lambda h: h[1])))
        return hits[0] if hits else None
