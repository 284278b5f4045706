"""DSE: dead-store elimination.

A store is dead when a later store must-overwrite the same location and
nothing in between may *read* it — the "may read?" checks are alias
queries, so optimistic answers directly grow the deleted-store count
(Fig. 6: Quicksilver "# stores deleted" +1533%).
"""

from __future__ import annotations

from typing import List, Optional

from ..analysis.aliasing import AliasResult, ModRefInfo
from ..analysis.memloc import MemoryLocation
from ..ir.function import Function
from ..ir.instructions import (
    CallInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    StoreInst,
)
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


def _may_read(inst: Instruction, loc: MemoryLocation, aa) -> bool:
    mr = aa.get_mod_ref(inst, loc)
    return bool(mr & ModRefInfo.REF)


def _must_overwrite(later: Instruction, loc: MemoryLocation, aa) -> bool:
    """Does ``later`` certainly write all of ``loc``?"""
    if isinstance(later, StoreInst):
        lloc = MemoryLocation.get(later)
        if aa.alias(lloc, loc) is AliasResult.MUST:
            return (lloc.size.has_value and loc.size.has_value
                    and lloc.size.value >= loc.size.value)
    if isinstance(later, (MemSetInst, MemCpyInst)):
        lloc = MemoryLocation.for_dst(later)
        if aa.alias(lloc, loc) is AliasResult.MUST:
            return (lloc.size.has_value and loc.size.has_value
                    and lloc.size.value >= loc.size.value)
    return False


class DSE(Pass):
    name = "dse"
    display_name = "Dead Store Elimination"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        aa = ctx.aa
        changed = self._drop_stores_to_dead_locals(fn, ctx)
        for bb in fn.blocks:
            insts = bb.instructions
            i = 0
            while i < len(insts):
                inst = insts[i]
                if not isinstance(inst, StoreInst) or inst.is_volatile:
                    i += 1
                    continue
                loc = MemoryLocation.get(inst)
                mark = ctx.trace.mark() if ctx.trace is not None else None
                dead = False
                for j in range(i + 1, len(insts)):
                    later = insts[j]
                    if _must_overwrite(later, loc, aa):
                        dead = True
                        break
                    if later.may_read_memory() and _may_read(later, loc, aa):
                        break
                    if isinstance(later, CallInst) and later.may_write_memory():
                        break  # opaque call: could read through anything
                    if later.is_terminator:
                        break
                if dead:
                    # rendered before erasing drops the store's operands
                    what = (f"deleted dead store to {inst.pointer.short()}"
                            if ctx.trace is not None else None)
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name, "# stores deleted")
                    if ctx.trace is not None:
                        ctx.trace.remark(self.display_name, fn.name, what,
                                         since=mark)
                    changed = True
                    # do not advance: insts[i] is now the next instruction
                else:
                    i += 1
        # only erases stores; the CFG is untouched
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    def _drop_stores_to_dead_locals(self, fn: Function,
                                    ctx: CompilationContext) -> bool:
        """Stores into a non-escaping alloca that is never loaded are
        dead (classic end-of-function DSE).  This is what lets a whole
        scratch computation die once GVN has forwarded all its reads."""
        from ..analysis.basic_aa import alloca_is_captured
        from ..analysis.aliasing import underlying_object
        from ..ir.instructions import AllocaInst, GEPInst, CastInst

        changed = False
        for bb in list(fn.blocks):
            for inst in bb.instructions:
                if not isinstance(inst, AllocaInst):
                    continue
                if alloca_is_captured(inst):
                    continue
                stores: List[StoreInst] = []
                loaded = False
                work = [inst]
                seen = set()
                while work and not loaded:
                    v = work.pop()
                    if v in seen:
                        continue
                    seen.add(v)
                    for user in v.users:
                        if isinstance(user, LoadInst):
                            loaded = True
                            break
                        if isinstance(user, (GEPInst, CastInst)):
                            work.append(user)
                        elif isinstance(user, StoreInst) \
                                and user.pointer is v:
                            stores.append(user)
                        elif isinstance(user, (MemCpyInst, MemSetInst)):
                            if getattr(user, "src", None) is v:
                                loaded = True
                                break
                            stores.append(user)
                        else:
                            loaded = True  # unknown use: be conservative
                            break
                if not loaded:
                    for st in stores:
                        st.erase_from_parent()
                        ctx.stats.add(self.display_name, "# stores deleted")
                        changed = True
        return changed
