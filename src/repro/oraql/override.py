"""Override mode (paper §VIII, future work).

The production ORAQL design cannot reason about queries the existing
analyses already answer: it sits last in the chain, so no-alias and
must-alias results reach their consumers unchanged.  The paper's
conclusion sketches the complementary design — *block* existing
analyses and force pessimistic answers in order to measure the value of
the information the chain already provides.

``OraqlOverridePass`` implements that design: it sits *in front of* the
chain, and for each unique pointer pair a decision bit selects between
``1`` (defer — let the chain answer as usual) and ``0`` (force
may-alias, hiding whatever the chain knows).  Forcing pessimism is
always sound, so there is no verification loop; the interesting outputs
are the statistics/performance deltas, measured by
:func:`measure_chain_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from ..analysis.memloc import MemoryLocation
from ..ir.function import Function
from .sequence import DecisionSequence


class OraqlOverridePass:
    """Decision-driven suppressor of the existing analyses' answers."""

    name = "oraql-override"

    def __init__(self, sequence: Optional[DecisionSequence] = None):
        self.sequence = sequence if sequence is not None else DecisionSequence()
        self.cache: Dict[FrozenSet[int], bool] = {}
        self.deferred_unique = 0
        self.forced_unique = 0
        self.forced_cached = 0

    def reset(self) -> None:
        self.cache.clear()
        self.sequence.reset()

    def should_force_may(self, a: MemoryLocation, b: MemoryLocation,
                         fn: Optional[Function]) -> bool:
        """True = hide the chain's answer for this pair (force may)."""
        key = frozenset((a.ptr.id, b.ptr.id))
        hit = self.cache.get(key)
        if hit is not None:
            if hit:
                self.forced_cached += 1
            return hit
        # decision bit: 1 = defer to the chain, 0 = force pessimistic.
        # Past the end of the sequence we force (the all-pessimistic
        # default matches the mode's purpose: measure the chain's value;
        # note this inverts the probing pass's optimistic tail).
        if self.sequence.consumed < len(self.sequence):
            force = not self.sequence.next()
        else:
            self.sequence.consumed += 1
            force = True
        self.cache[key] = force
        if force:
            self.forced_unique += 1
        else:
            self.deferred_unique += 1
        return force


@dataclass
class ChainValueReport:
    """The measured value of the existing analyses (override ablation)."""

    config_name: str
    no_alias_normal: int
    no_alias_suppressed: int
    instructions_normal: int
    instructions_suppressed: int
    cycles_normal: float
    cycles_suppressed: float

    @property
    def instruction_cost_percent(self) -> float:
        if self.instructions_normal == 0:
            return 0.0
        return 100.0 * (self.instructions_suppressed
                        - self.instructions_normal) \
            / self.instructions_normal

    def summary(self) -> str:
        return (f"{self.config_name}: suppressing the AA chain keeps only "
                f"{self.no_alias_suppressed}/{self.no_alias_normal} "
                f"no-alias answers and costs "
                f"{self.instruction_cost_percent:+.1f}% instructions")


def measure_chain_value(config, compiler=None) -> ChainValueReport:
    """Compile a benchmark normally and with every chain answer forced
    pessimistic; report the delta (the §VIII experiment)."""
    from .compiler import Compiler

    compiler = compiler or Compiler()
    normal = compiler.compile(config, oraql_enabled=False)
    rn = normal.run()
    if not rn.ok:
        raise RuntimeError(f"baseline failed: {rn.error}")

    suppressed = compiler.compile(config, oraql_enabled=False,
                                  override=OraqlOverridePass())
    rs = suppressed.run()
    if not rs.ok:
        raise RuntimeError(
            f"suppressed build failed — pessimism must be sound: {rs.error}")
    if rs.stdout != rn.stdout:
        # filtered comparison: timing lines may differ
        from .verify import VerificationScript
        v = VerificationScript([rn.stdout], config.output_filters)
        if not v.check(rs):
            raise RuntimeError("suppressed build changed program output — "
                               "forced pessimism must be sound")
    return ChainValueReport(
        config.name,
        normal.no_alias_count, suppressed.no_alias_count,
        rn.instructions, rs.instructions,
        rn.cycles, rs.cycles)
