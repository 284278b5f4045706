"""Loop deletion: remove provably-finite loops with no observable effects.

After optimistic GVN/LICM/DSE strip a loop's memory traffic, the loop
often computes nothing anyone reads — deleting it is where Quicksilver's
"# deleted loops 2 → 55" comes from (Fig. 6).
"""

from __future__ import annotations


from ..analysis.loops import Loop, loop_trip_count
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    ICmpInst,
    Instruction,
    PhiInst,
)
from ..ir.values import ConstantInt, UndefValue
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


def _loop_is_finite(loop: Loop) -> bool:
    """Conservative finiteness: a constant trip count, or the canonical
    ``i = phi; ...; i2 = i + c; br (i2 <cmp> bound)`` shape with positive
    step and an upper-bound comparison against a loop-invariant bound."""
    if loop_trip_count(loop) is not None:
        return True
    exiting = loop.exiting_blocks()
    if len(exiting) != 1:
        return False
    term = exiting[0].terminator
    if not isinstance(term, BranchInst) or not term.is_conditional:
        return False
    cond = term.condition
    if not isinstance(cond, ICmpInst):
        return False
    lhs, rhs = cond.operands
    # bound must be loop-invariant
    if isinstance(rhs, Instruction) and rhs.parent in loop.blocks:
        return False
    # the continue-condition must be an upper bound on an incrementing IV
    iv = lhs
    if isinstance(iv, BinaryInst) and iv.op == "add" \
            and isinstance(iv.rhs, ConstantInt) and iv.rhs.value > 0:
        iv = iv.lhs
    if not isinstance(iv, PhiInst) or iv.parent is not loop.header:
        return False
    steps_ok = False
    for v, b in iv.incoming:
        if b in loop.blocks:
            if isinstance(v, BinaryInst) and v.op == "add" \
                    and v.lhs is iv and isinstance(v.rhs, ConstantInt) \
                    and v.rhs.value > 0:
                steps_ok = True
    if not steps_ok:
        return False
    # taking the loop again requires cond (slt/sle) to hold
    taken_in_loop = term.targets[0] in loop.blocks
    pred = cond.pred
    if taken_in_loop and pred in ("slt", "sle", "ult", "ule"):
        return True
    if not taken_in_loop and pred in ("sge", "sgt", "uge", "ugt"):
        return True
    return False


class LoopDeletion(Pass):
    name = "loop-deletion"
    display_name = "Delete dead loops"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        # repeat: deleting an inner loop can make the outer one dead
        while True:
            li = ctx.analyses(fn).li
            deleted = False
            for loop in sorted(li.loops, key=lambda l: -l.depth):
                if self._try_delete(fn, loop, ctx):
                    ctx.stats.add(self.display_name, "# deleted loops")
                    # mid-run refresh: the next iteration needs LoopInfo
                    # over the mutated CFG
                    ctx.invalidate(fn)
                    changed = deleted = True
                    break
            if not deleted:
                return PreservedAnalyses.from_changed(changed)

    def _try_delete(self, fn: Function, loop: Loop,
                    ctx: CompilationContext) -> bool:
        preheader = loop.preheader()
        if preheader is None:
            return False
        exits = loop.exit_blocks()
        if len(exits) != 1:
            return False
        exit_bb = exits[0]
        # dedicated exit so re-pointing the preheader branch is sound
        if any(p not in loop.blocks and p is not preheader
               for p in exit_bb.predecessors):
            return False
        if not _loop_is_finite(loop):
            return False
        # no observable effects inside
        for bb in loop.blocks:
            for inst in bb.instructions:
                if inst.is_terminator:
                    continue
                if inst.may_write_memory() or inst.has_side_effects():
                    return False
        # no out-of-loop uses of in-loop values
        for bb in loop.blocks:
            for inst in bb.instructions:
                for user in inst.users:
                    ub = getattr(user, "parent", None)
                    if ub is not None and ub not in loop.blocks:
                        return False
        # exit block phis: re-point header edge to preheader; incoming
        # values must be loop-invariant (guaranteed by the check above)
        for phi in exit_bb.phis():
            for i, b in enumerate(phi.incoming_blocks):
                if b in loop.blocks:
                    phi.incoming_blocks[i] = preheader
        # re-point the preheader into the exit
        term = preheader.terminator
        assert isinstance(term, BranchInst) and not term.is_conditional
        term.targets[0] = exit_bb
        # delete the loop body
        for bb in list(loop.blocks):
            for inst in list(bb.instructions):
                if inst.users:
                    inst.replace_all_uses_with(UndefValue(inst.type))
                inst.erase_from_parent()
            bb.erase_from_parent()
        return True
