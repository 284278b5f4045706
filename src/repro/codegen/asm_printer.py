"""Asm printer: final machine-instruction counts per function/module."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..ir.function import Function
from ..ir.module import Module
from ..passes.statistics import Statistics
from .lowering import lower_function
from .regalloc import linear_scan

#: extra machine instructions materialized per spill (store + reload)
SPILL_OVERHEAD = 2


@dataclass
class FunctionCodegen:
    machine_insts: int
    spills: int
    frame_bytes: int


def codegen_function(fn: Function) -> FunctionCodegen:
    lowered = lower_function(fn)
    alloc = linear_scan(lowered)
    insts = lowered.machine_insts + SPILL_OVERHEAD * alloc.spills
    frame = lowered.frame_bytes + alloc.spill_bytes
    return FunctionCodegen(insts, alloc.spills, frame)


def run_codegen(module: Module, stats: Statistics,
                target: str = "host") -> Dict[str, FunctionCodegen]:
    """Code-generate every defined function for ``target``; report the
    asm-printer / register-allocation statistics (Fig. 6 rows)."""
    out: Dict[str, FunctionCodegen] = {}
    for fn in module.defined_functions():
        if fn.target != target:
            continue
        cg = codegen_function(fn)
        out[fn.name] = cg
        stats.add("asm printer", "# machine instructions generated",
                  cg.machine_insts)
        stats.add("register allocation", "# register spills inserted",
                  cg.spills)
    return out
