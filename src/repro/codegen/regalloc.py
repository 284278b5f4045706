"""Linear-scan register allocation (spill accounting).

Classic Poletto–Sarkar linear scan over the lowered live intervals, per
register class.  We only need the *spill count* (Fig. 6: Quicksilver
"# register spills inserted" −2.9% under ORAQL) and the resulting
machine-instruction inflation (a reload per spilled use, modelled as 2
extra instructions per spill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .lowering import LiveInterval, LoweredFunction

#: available registers per class (x86-64-ish: 14 allocatable GPRs after
#: RSP/RBP, 16 XMM)
DEFAULT_REGS = {"int": 14, "fp": 16}


@dataclass
class AllocationResult:
    spills: int
    spill_bytes: int
    max_pressure: Dict[str, int]


def linear_scan(lowered: LoweredFunction,
                regs: Dict[str, int] = None) -> AllocationResult:
    regs = regs or DEFAULT_REGS
    spills = 0
    spill_bytes = 0
    max_pressure = {"int": 0, "fp": 0}
    for cls, k in regs.items():
        active: List[LiveInterval] = []
        for iv in lowered.intervals:
            if iv.cls != cls:
                continue
            active = [a for a in active if a.end > iv.start]
            active.append(iv)
            max_pressure[cls] = max(max_pressure[cls], len(active))
            if len(active) > k:
                # spill the interval that ends furthest away
                victim = max(active, key=lambda a: a.end)
                active.remove(victim)
                spills += 1
                spill_bytes += max(8, victim.value.type.size()
                                   if not victim.value.type.is_void else 8)
    return AllocationResult(spills, spill_bytes, max_pressure)


def gpu_pressure(lowered: LoweredFunction) -> int:
    """Maximum simultaneous 32-bit register demand on a GPU (no spilling
    below 255 registers; unified register file, width-weighted)."""
    events = []
    for iv in lowered.intervals:
        events.append((iv.start, iv.width))
        events.append((iv.end + 1, -iv.width))
    events.sort()
    cur = peak = 0
    for _, delta in events:
        cur += delta
        peak = max(peak, cur)
    # kernels always need a few fixed registers (params, special regs)
    return min(255, peak + 8)
