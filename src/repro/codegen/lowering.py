"""Lowering: IR → machine-instruction accounting.

We do not emit real machine code; we model instruction selection closely
enough to report the codegen-facing statistics the paper uses:
``# machine instructions generated`` (asm printer) and the inputs the
register allocator needs (linearized live intervals, register classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    ShuffleSplatInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from ..ir.values import Argument, ConstantInt, Value


def machine_inst_count(inst: Instruction) -> int:
    """How many machine instructions this IR instruction selects to."""
    if isinstance(inst, PhiInst):
        return 0  # becomes copies counted against predecessors
    if isinstance(inst, AllocaInst):
        return 0  # folded into the frame
    if isinstance(inst, GEPInst):
        # constant-offset geps fold into addressing modes; each variable
        # index costs a lea/shift-add
        return sum(1 for i in inst.indices if not isinstance(i, ConstantInt))
    if isinstance(inst, (LoadInst, StoreInst)):
        return 1
    if isinstance(inst, BinaryInst):
        if inst.op in ("sdiv", "udiv", "srem", "urem"):
            return 2  # cdq + idiv
        return 1
    if isinstance(inst, (ICmpInst, FCmpInst)):
        return 1
    if isinstance(inst, CastInst):
        return 0 if inst.op in ("bitcast", "ptrtoint", "inttoptr") else 1
    if isinstance(inst, SelectInst):
        return 1  # cmov
    if isinstance(inst, BranchInst):
        return 2 if inst.is_conditional else 1
    if isinstance(inst, ReturnInst):
        return 1
    if isinstance(inst, CallInst):
        return 1 + len(inst.operands)  # arg setup + call
    if isinstance(inst, (MemCpyInst, MemSetInst)):
        return 4
    if isinstance(inst, ShuffleSplatInst):
        return 1
    if isinstance(inst, (ExtractElementInst, InsertElementInst)):
        return 1
    if isinstance(inst, UnreachableInst):
        return 1
    return 1


def register_class(ty: Type) -> Optional[str]:
    """"int" (GP) or "fp" (XMM/vector); None for untracked (void/label)."""
    if isinstance(ty, (IntType, PointerType)):
        return "int"
    if isinstance(ty, FloatType):
        return "fp"
    if isinstance(ty, VectorType):
        return "fp"
    return None


def gpu_register_width(ty: Type) -> int:
    """32-bit registers consumed per value on the GPU (doubles/i64 = 2,
    vectors = 2 per 64-bit lane)."""
    if isinstance(ty, (IntType,)):
        return 2 if ty.bits > 32 else 1
    if isinstance(ty, FloatType):
        return 2 if ty.bits > 32 else 1
    if isinstance(ty, PointerType):
        return 2
    if isinstance(ty, VectorType):
        return gpu_register_width(ty.element) * ty.count
    return 1


@dataclass
class LiveInterval:
    value: Value
    start: int
    end: int
    cls: str
    width: int = 1


@dataclass
class LoweredFunction:
    """Linearized machine-level view of a function."""

    function: Function
    machine_insts: int
    intervals: List[LiveInterval]
    positions: Dict[Value, int]
    frame_bytes: int
    phi_copies: int


def lower_function(fn: Function) -> LoweredFunction:
    """Linearize, count selected instructions, build live intervals."""
    positions: Dict[Value, int] = {}
    order: List[Instruction] = []
    pos = 0
    for bb in fn.blocks:
        for inst in bb.instructions:
            positions[inst] = pos
            order.append(inst)
            pos += 1

    machine = 0
    phi_copies = 0
    frame = 0
    last_use: Dict[Value, int] = {}
    first_def: Dict[Value, int] = {}

    for a in fn.args:
        first_def[a] = 0

    for inst in order:
        machine += machine_inst_count(inst)
        p = positions[inst]
        if not inst.type.is_void and not isinstance(inst.type, type(None)):
            first_def.setdefault(inst, p)
        if isinstance(inst, AllocaInst):
            frame += inst.size_bytes()
        for op in inst.operands:
            if isinstance(op, (Instruction, Argument)):
                last_use[op] = max(last_use.get(op, 0), p)
        if isinstance(inst, PhiInst):
            # each incoming edge materializes a copy in the predecessor
            phi_copies += len(inst.operands)
            for v, b in inst.incoming:
                if isinstance(v, (Instruction, Argument)):
                    # value must stay live until the end of the pred block
                    endp = positions.get(
                        b.terminator if b.terminator is not None else inst,
                        positions[inst])
                    last_use[v] = max(last_use.get(v, 0), endp)
    machine += phi_copies

    # loop-carried values: anything used by a phi via a backedge, or used
    # in a block before its definition point's block repeats, stays live
    # across the loop; approximate by extending intervals that cross
    # backwards branches
    for bb in fn.blocks:
        term = bb.terminator
        if term is None or not isinstance(term, BranchInst):
            continue
        tp = positions[term]
        for target in term.targets:
            if positions.get(target.instructions[0], tp) <= tp:
                # backedge: values live at the target that were defined
                # before it must survive the whole loop body
                for phi in target.phis():
                    for v, b in phi.incoming:
                        if b is bb and isinstance(v, (Instruction, Argument)):
                            last_use[v] = max(last_use.get(v, 0), tp)

    # addressing-mode folding: a GEP itself never occupies a register
    # (base + index*scale + imm), and an `add x, imm` whose only users
    # are GEP indices folds into the immediate.  Their *base* operands
    # stay live up to the folded consumer instead.
    folded: set = set()
    for inst in order:
        if isinstance(inst, GEPInst):
            folded.add(inst)
            endp = last_use.get(inst, positions[inst])
            for op in (inst.pointer, *inst.indices):
                if isinstance(op, (Instruction, Argument)):
                    last_use[op] = max(last_use.get(op, 0), endp)
        elif isinstance(inst, BinaryInst) and inst.op == "add" \
                and isinstance(inst.rhs, ConstantInt) and inst.users \
                and all(isinstance(u, GEPInst) for u in inst.users):
            folded.add(inst)
            endp = last_use.get(inst, positions[inst])
            if isinstance(inst.lhs, (Instruction, Argument)):
                last_use[inst.lhs] = max(last_use.get(inst.lhs, 0), endp)

    intervals: List[LiveInterval] = []
    for v, start in first_def.items():
        if v in folded:
            continue
        end = last_use.get(v, start)
        cls = register_class(v.type)
        if cls is None:
            continue
        intervals.append(LiveInterval(v, start, end, cls,
                                      gpu_register_width(v.type)))
    intervals.sort(key=lambda iv: (iv.start, iv.end))
    return LoweredFunction(fn, machine, intervals, positions, frame,
                           phi_copies)
