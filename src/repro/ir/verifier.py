"""IR verifier: structural and SSA-dominance well-formedness checks.

Run after the frontend and after every transformation pass in debug
pipelines; a pass that produces ill-formed IR is a bug in the pass, not a
miscompile to be attributed to ORAQL's optimism.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, Iterable, Optional, Set, Tuple

from ..analysis.dominators import DominatorTree
from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    BranchInst,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    StoreInst,
)
from .module import Module
from .printer import format_instruction


class VerificationError(Exception):
    """Raised when the IR violates a structural invariant."""


def verify_function(fn: Function, dt=None) -> None:
    """Check ``fn``'s structural and SSA invariants.

    ``dt`` may supply an up-to-date DominatorTree (e.g. the pass
    manager's cached analysis) to avoid a throwaway rebuild; when None,
    one is constructed locally.

    Messages are built only when a check fails: valid IR, the common
    case, renders no instruction text.
    """
    if not fn.blocks:
        raise VerificationError(f"@{fn.name}: function has no blocks")
    block_set: Set[BasicBlock] = set(fn.blocks)
    #: instruction id -> (block, index), for the dominance checks
    position: Dict[int, Tuple[BasicBlock, int]] = {}

    for bb in fn.blocks:
        if bb.parent is not fn:
            raise VerificationError(f"@{fn.name}/{bb.name}: wrong parent")
        if bb.terminator is None:
            raise VerificationError(
                f"@{fn.name}/{bb.name}: missing terminator")
        last = len(bb.instructions) - 1
        num_phis = len(bb.phis())
        for i, inst in enumerate(bb.instructions):
            position[inst.id] = (bb, i)
            if inst.parent is not bb:
                raise VerificationError(
                    f"@{fn.name}/{bb.name}: instruction parent mismatch")
            if inst.is_terminator and i != last:
                raise VerificationError(
                    f"@{fn.name}/{bb.name}: terminator not last")
            # the classes below are disjoint: one branch per instruction
            if isinstance(inst, PhiInst):
                if i >= num_phis:
                    raise VerificationError(
                        f"@{fn.name}/{bb.name}: phi not at block head")
            elif isinstance(inst, BranchInst):
                for t in inst.targets:
                    if t not in block_set:
                        raise VerificationError(
                            f"@{fn.name}/{bb.name}: branch to foreign block")
            elif isinstance(inst, ReturnInst):
                if fn.return_type.is_void:
                    if inst.value is not None:
                        raise VerificationError(
                            f"@{fn.name}: returning value from void function")
                elif inst.value is None:
                    raise VerificationError(
                        f"@{fn.name}: missing return value")
            elif isinstance(inst, LoadInst):
                if not inst.pointer.type.is_pointer:
                    raise VerificationError(
                        f"@{fn.name}: load from non-pointer")
                if inst.pointer.type.pointee != inst.type:
                    raise VerificationError(
                        f"@{fn.name}: load type mismatch")
            elif isinstance(inst, StoreInst):
                if inst.pointer.type.pointee != inst.value.type:
                    raise VerificationError(
                        f"@{fn.name}: store type mismatch "
                        f"({inst.value.type} into {inst.pointer.type})")

    # phi incoming blocks must exactly match predecessors
    preds = {bb: [] for bb in fn.blocks}
    for bb in fn.blocks:
        for s in bb.successors:
            preds[s].append(bb)
    for bb in fn.blocks:
        for phi in bb.phis():
            inc = set(id(b) for b in phi.incoming_blocks)
            actual = set(id(b) for b in preds[bb])
            if inc != actual:
                raise VerificationError(
                    f"@{fn.name}/{bb.name}: phi incoming blocks "
                    f"{_block_names(phi.incoming_blocks)} "
                    f"!= predecessors {_block_names(preds[bb])}")

    # SSA dominance: every use is dominated by its def
    if dt is None:
        dt = DominatorTree(fn)
    for bb in fn.blocks:
        if not dt.is_reachable(bb):
            continue
        for i, inst in enumerate(bb.instructions):
            is_phi = isinstance(inst, PhiInst)
            for oi, op in enumerate(inst.operands):
                if not isinstance(op, Instruction):
                    continue
                where = position.get(op.id)
                if where is None:
                    raise VerificationError(
                        f"@{fn.name}: use of erased instruction "
                        f"{op.opcode} in {format_safe(inst)}")
                dbb, di = where
                if is_phi:
                    # value must dominate the incoming edge's terminator
                    pred = inst.incoming_blocks[oi]
                    if dbb is not pred and not dt.dominates_block(dbb, pred):
                        raise VerificationError(
                            f"@{fn.name}: phi operand does not dominate edge")
                elif dbb is bb:
                    if di >= i:
                        raise VerificationError(
                            f"@{fn.name}/{bb.name}: use before def of "
                            f"{format_safe(op)}")
                elif not dt.dominates_block(dbb, bb):
                    raise VerificationError(
                        f"@{fn.name}: def in {dbb.name} does not "
                        f"dominate use in {bb.name}")


def _block_names(blocks: Iterable[BasicBlock]) -> str:
    """``[a, b]``: the distinct blocks' names, sorted, for a message that
    reads the same on every run."""
    return f"[{', '.join(sorted(b.name for b in dict.fromkeys(blocks)))}]"


def format_safe(inst: Instruction) -> str:
    try:
        return format_instruction(inst)
    except Exception:  # pragma: no cover - printing must not mask errors
        return repr(inst)


def verify_module(mod: Module,
                  cached_dt: Optional[Callable[[Function],
                                               Optional[DominatorTree]]]
                  = None, skip: Container[str] = ()) -> None:
    """Verify every defined function of ``mod`` not named in ``skip``.

    ``cached_dt(fn)`` may return an up-to-date DominatorTree of ``fn``
    or None, e.g. the analysis manager that just ran a pipeline over
    ``mod``; a function without one gets a locally built tree.
    """
    for fn in mod.defined_functions():
        if fn.name in skip:
            continue
        verify_function(fn, dt=None if cached_dt is None else cached_dt(fn))
