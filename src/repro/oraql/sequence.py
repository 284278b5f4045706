"""Decision sequences: the 0/1 response stream fed to the ORAQL pass.

The paper's driver passes the probing sequence to ``opt`` on the command
line (``-opt-aa-seq=<sequence>``, §IV-A).  Here the compiler runs in the
driver's process, so the :class:`DecisionSequence` object is handed to
the pass directly.  :meth:`DecisionSequence.to_text` and
:meth:`~DecisionSequence.from_text` keep the paper's space-separated
text form: ``1`` (optimistic, no-alias) and ``0`` (may-alias).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


class DecisionSequence:
    """A finite bit prefix; queries beyond the end are optimistic.

    ``consumed`` tracks how many decisions have been handed out, which
    the pass reports back to the driver as the unique-query count.
    """

    def __init__(self, bits: Sequence[int] = ()):
        self.bits: List[int] = [1 if b else 0 for b in bits]
        self.consumed = 0

    # -- pass-side ----------------------------------------------------------
    def next(self) -> bool:
        """The decision for the next unique query (True = no-alias)."""
        self.consumed += 1
        return self.peek(self.consumed - 1)

    def peek(self, index: int) -> bool:
        """The decision the ``index``-th unique query gets, without
        consuming anything."""
        if index < len(self.bits):
            return bool(self.bits[index])
        return True  # end of sequence: answer optimistically (§IV-A)

    def reset(self) -> None:
        self.consumed = 0

    # -- driver-side --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, DecisionSequence) and other.bits == self.bits

    def __hash__(self) -> int:
        return hash(tuple(self.bits))

    def to_text(self) -> str:
        return " ".join(str(b) for b in self.bits)

    @staticmethod
    def from_text(text: str) -> "DecisionSequence":
        bits = []
        for tok in text.split():
            if tok not in ("0", "1"):
                raise ValueError(f"bad decision token {tok!r}")
            bits.append(int(tok))
        return DecisionSequence(bits)


def sequence_from_pessimistic_set(pess: Iterable[int],
                                  length: Optional[int] = None) -> DecisionSequence:
    """Bits with the given indices pessimistic, everything else (up to
    ``length``, default max index + 1) optimistic."""
    pset = set(pess)
    if length is None:
        length = (max(pset) + 1) if pset else 0
    return DecisionSequence([0 if i in pset else 1 for i in range(length)])
