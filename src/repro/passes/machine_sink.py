"""Machine sinking: move instructions into the successor that uses them.

Sinking a load past the branch needs proof that nothing on the fall-
through path writes the location (alias queries — the GridMini device
compile attributes four of its 86 queries to this pass, §V-C).
"""

from __future__ import annotations

from ..analysis.aliasing import ModRefInfo
from ..analysis.memloc import MemoryLocation
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    LoadInst,
    PhiInst,
    SelectInst,
)
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


class MachineSink(Pass):
    name = "machine-sink"
    display_name = "Machine code sinking"

    SINKABLE = (BinaryInst, CastInst, GEPInst, ICmpInst, FCmpInst, SelectInst)

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        dt = ctx.analyses(fn).dt
        aa = ctx.aa
        changed = False
        for bb in list(fn.blocks):
            for inst in reversed(list(bb.instructions)):
                if isinstance(inst, PhiInst) or inst.is_terminator:
                    continue
                users = list(inst.users)
                if not users:
                    continue
                target = self._common_user_block(users)
                if target is None or target is bb:
                    continue
                if not dt.is_reachable(target) or not dt.dominates_block(
                        bb, target):
                    continue
                # never sink into a loop header from outside (re-execution)
                li = ctx.analyses(fn).li
                lt, lb = li.loop_for(target), li.loop_for(bb)
                if lt is not None and lt is not lb:
                    continue
                if any(isinstance(u, PhiInst) for u in users):
                    continue
                if isinstance(inst, LoadInst):
                    if inst.is_volatile:
                        continue
                    preds = target.predecessors
                    if target not in bb.successors or preds != [bb]:
                        continue  # loads only sink across a single edge
                    loc = MemoryLocation.get(inst)
                    tail = bb.instructions[bb.instructions.index(inst) + 1:]
                    head = target.instructions[:self._index_of_first_user(
                        target, users)]
                    blocked = False
                    for mid in tail + head:
                        if mid.may_write_memory() and (
                                aa.get_mod_ref(mid, loc) & ModRefInfo.MOD):
                            blocked = True
                            break
                    if blocked:
                        continue
                elif not isinstance(inst, self.SINKABLE):
                    continue
                bb.instructions.remove(inst)
                inst.parent = None
                target.insert_at_front(inst)
                ctx.stats.add(self.display_name, "# instructions sunk")
                changed = True
        # moves instructions between existing blocks; the CFG is untouched
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    @staticmethod
    def _common_user_block(users) -> BasicBlock:
        blocks = {getattr(u, "parent", None) for u in users}
        blocks.discard(None)
        if len(blocks) == 1:
            return blocks.pop()
        return None

    @staticmethod
    def _index_of_first_user(block: BasicBlock, users) -> int:
        for i, inst in enumerate(block.instructions):
            if inst in users:
                return i
        return len(block.instructions)
