"""GVN: global value numbering with MemorySSA-driven load elimination.

The load elimination walk is the headline AA consumer: for each load we
ask MemorySSA for the clobbering access, which issues alias queries for
every intervening store — in TestSNAP-OpenMP, GVN is the pass issuing
the four pessimistic queries of Fig. 3.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..analysis.aliasing import AliasResult
from ..analysis.memloc import MemoryLocation
from ..analysis.memory_ssa import MemoryDef
from ..ir.function import Function
from ..ir.instructions import LoadInst, StoreInst
from .analysis_manager import PreservedAnalyses
from .early_cse import _expr_key
from .pass_manager import CompilationContext, Pass


class GVN(Pass):
    name = "gvn"
    display_name = "Global Value Numbering"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        changed |= self._eliminate_loads(fn, ctx)
        changed |= self._number_expressions(fn, ctx)
        # deletes loads / pure expressions, never branches or blocks
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    # -- load elimination ------------------------------------------------
    def _eliminate_loads(self, fn: Function, ctx: CompilationContext) -> bool:
        analyses = ctx.analyses(fn)
        mssa = analyses.mssa
        dt = analyses.dt
        aa = ctx.aa
        changed = False
        # (clobbering access id, pointer value) -> earlier load
        seen_loads: Dict[Tuple[int, int], LoadInst] = {}
        erased = set()
        for bb in dt.rpo:
            for inst in list(bb.instructions):
                if not isinstance(inst, LoadInst) or inst.is_volatile:
                    continue
                if inst in erased:
                    continue
                if inst not in mssa.access_of:
                    continue
                mark = ctx.trace.mark() if ctx.trace is not None else None
                clobber = mssa.clobbering_access(inst)
                loc = MemoryLocation.get(inst)

                # 1) store-to-load forwarding
                if isinstance(clobber, MemoryDef) and isinstance(
                        clobber.inst, StoreInst):
                    store = clobber.inst
                    if store.value.type == inst.type and dt.dominates(
                            store, inst):
                        r = aa.alias(MemoryLocation.get(store), loc)
                        if r is AliasResult.MUST:
                            inst.replace_all_uses_with(store.value)
                            inst.erase_from_parent()
                            erased.add(inst)
                            ctx.stats.add(self.display_name, "# loads deleted")
                            if ctx.trace is not None:
                                ctx.trace.remark(
                                    self.display_name, fn.name,
                                    f"forwarded store to load "
                                    f"{inst.short()}", since=mark)
                            changed = True
                            continue

                # 2) redundant load elimination (same clobber, same address)
                key_candidates = [
                    k for k in seen_loads
                    if k[0] == clobber.id
                ]
                replaced = False
                for k in key_candidates:
                    prior = seen_loads[k]
                    if prior in erased or prior.type != inst.type:
                        continue
                    if prior.parent is None:
                        continue
                    if not dt.dominates(prior, inst):
                        continue
                    if prior.pointer is inst.pointer or aa.alias(
                            MemoryLocation.get(prior), loc) is AliasResult.MUST:
                        inst.replace_all_uses_with(prior)
                        inst.erase_from_parent()
                        erased.add(inst)
                        ctx.stats.add(self.display_name, "# loads deleted")
                        if ctx.trace is not None:
                            ctx.trace.remark(
                                self.display_name, fn.name,
                                f"eliminated redundant load "
                                f"{inst.short()}", since=mark)
                        changed = True
                        replaced = True
                        break
                if not replaced:
                    seen_loads[(clobber.id, inst.pointer.id)] = inst
        return changed

    # -- expression numbering ----------------------------------------------
    def _number_expressions(self, fn: Function, ctx: CompilationContext) -> bool:
        dt = ctx.analyses(fn).dt
        table: Dict[Tuple, object] = {}
        changed = False
        for bb in dt.rpo:
            for inst in list(bb.instructions):
                key = _expr_key(inst)
                if key is None:
                    continue
                prev = table.get(key)
                if prev is not None and prev.parent is not None \
                        and dt.dominates(prev, inst):
                    inst.replace_all_uses_with(prev)
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name, "# instructions GVN'd")
                    changed = True
                else:
                    table[key] = inst
        return changed
