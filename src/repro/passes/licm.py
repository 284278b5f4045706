"""LICM: loop-invariant code motion and scalar promotion.

Load hoisting asks, for every candidate load, whether *any* store or
call in the loop may clobber it — a burst of alias queries per loop.
Scalar promotion (the "sunk" half of LLVM's "# loads hoisted or sunk")
rewrites an invariant location to a register across the whole loop; a
wrong optimistic no-alias here changes program output, which is one of
the main failure channels ORAQL's probing has to fence in.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..analysis.aliasing import AliasResult, ModRefInfo
from ..analysis.loops import Loop
from ..analysis.memloc import MemoryLocation
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    PhiInst,
    SelectInst,
    ShuffleSplatInst,
    StoreInst,
)
from ..ir.values import Value
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass

_TRAP_FREE_BINOPS = {"add", "sub", "mul", "and", "or", "xor", "shl",
                     "ashr", "lshr", "fadd", "fsub", "fmul", "fdiv"}


def _is_invariant(v: Value, loop: Loop, hoisted: Set[Value]) -> bool:
    if not isinstance(v, Instruction):
        return True  # constants, arguments, globals
    if v in hoisted:
        return True
    return v.parent not in loop.blocks


class LICM(Pass):
    name = "licm"
    display_name = "Loop Invariant Code Motion"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        li = ctx.analyses(fn).li
        changed = False
        # innermost first so invariants bubble outwards
        for loop in sorted(li.loops, key=lambda l: -l.depth):
            changed |= self._run_on_loop(fn, loop, ctx)
        # scalar promotion edits phis across loop boundaries; play it
        # safe and abandon everything when anything moved
        return PreservedAnalyses.from_changed(changed)

    # -- per-loop --------------------------------------------------------
    def _run_on_loop(self, fn: Function, loop: Loop,
                     ctx: CompilationContext) -> bool:
        preheader = loop.preheader()
        if preheader is None:
            return False
        dt = ctx.analyses(fn).dt
        aa = ctx.aa
        writers = [i for bb in loop.body_in_layout_order() for i in bb
                   if i.may_write_memory()]
        has_opaque_call = any(
            isinstance(i, CallInst) and i.may_write_memory() for i in writers)
        exits = loop.exit_blocks()
        changed = False
        hoisted: Set[Value] = set()

        def dominates_exits(bb: BasicBlock) -> bool:
            return all(dt.dominates_block(bb, e) for e in exits)

        insert_before = preheader.terminator
        again = True
        while again:
            again = False
            for bb in loop.body_in_layout_order():
                for inst in list(bb.instructions):
                    if inst in hoisted:
                        continue
                    if not all(_is_invariant(op, loop, hoisted)
                               for op in inst.operands):
                        continue
                    mark = (ctx.trace.mark() if ctx.trace is not None
                            else None)
                    if self._can_hoist(inst, bb, loop, writers,
                                       has_opaque_call, dominates_exits, aa):
                        bb.instructions.remove(inst)
                        inst.parent = None
                        preheader.insert_before(inst, insert_before)
                        hoisted.add(inst)
                        if isinstance(inst, LoadInst):
                            ctx.stats.add(self.display_name,
                                          "# loads hoisted or sunk")
                            if ctx.trace is not None:
                                ctx.trace.remark(
                                    self.display_name, fn.name,
                                    f"hoisted load {inst.short()} to "
                                    f"preheader", since=mark)
                        else:
                            ctx.stats.add(self.display_name,
                                          "# instructions hoisted")
                        changed = again = True

        changed |= self._promote_scalars(fn, loop, preheader, ctx)
        return changed

    def _can_hoist(self, inst: Instruction, bb: BasicBlock, loop: Loop,
                   writers: List[Instruction], has_opaque_call: bool,
                   dominates_exits, aa) -> bool:
        if isinstance(inst, (PhiInst, StoreInst, MemCpyInst, MemSetInst)):
            return False
        if inst.is_terminator or inst.has_side_effects():
            return False
        if isinstance(inst, LoadInst):
            if inst.is_volatile:
                return False
            # guaranteed to execute each iteration (dominates the latch),
            # or provably dereferenceable; header-check loops may run zero
            # iterations, so we additionally require the pointer to be
            # based on an identified allocation or an argument (assumed
            # dereferenceable, as LLVM does with dereferenceable attrs)
            if not (dominates_exits(bb) or self._deref_base(inst.pointer)):
                return False
            if has_opaque_call:
                return False
            loc = MemoryLocation.get(inst)
            for w in writers:
                if aa.get_mod_ref(w, loc) & ModRefInfo.MOD:
                    return False
            return True
        if isinstance(inst, CallInst):
            return inst.is_pure()
        if isinstance(inst, BinaryInst):
            if inst.op in _TRAP_FREE_BINOPS:
                return True
            return dominates_exits(bb)  # div/rem may trap off its path
        if isinstance(inst, (GEPInst, CastInst, ICmpInst, FCmpInst,
                             SelectInst, ShuffleSplatInst)):
            return True
        return False

    @staticmethod
    def _deref_base(pointer) -> bool:
        """Is the pointer based on something assumed dereferenceable
        (an identified allocation or a pointer argument)?"""
        from ..analysis.aliasing import underlying_object
        from ..analysis.basic_aa import is_identified_object
        from ..ir.values import Argument

        base = underlying_object(pointer)
        return is_identified_object(base) or isinstance(base, Argument)

    # -- scalar promotion --------------------------------------------------
    def _promote_scalars(self, fn: Function, loop: Loop,
                         preheader: BasicBlock,
                         ctx: CompilationContext) -> bool:
        """Promote an invariant memory location accessed by loads and
        stores in the loop to a register (load pre, phi carry, store post).

        Restricted to the safe shape: single latch; every access to the
        location sits in a block dominating the latch; every exit leaves
        from the header; no other may-aliasing access in the loop.
        """
        aa = ctx.aa
        dt = ctx.analyses(fn).dt
        latches = loop.latches()
        if len(latches) != 1:
            return False
        latch = latches[0]
        header = loop.header
        exits = loop.exit_blocks()
        # all exit edges must leave from the header, into dedicated exit
        # blocks (no out-of-loop predecessors), so the stores we insert at
        # the exits run exactly when the loop is left
        for bb in loop.exiting_blocks():
            if bb is not header:
                return False
        for e in exits:
            if any(p not in loop.blocks for p in e.predecessors):
                return False
        if any(isinstance(i, CallInst) and not i.is_pure()
               for bb in loop.blocks for i in bb):
            return False

        # candidate pointers: stored-to, loop-invariant address
        accesses: List[Tuple[Instruction, MemoryLocation]] = []
        for bb in loop.body_in_layout_order():
            for i in bb:
                if isinstance(i, LoadInst) and not i.is_volatile:
                    accesses.append((i, MemoryLocation.get(i)))
                elif isinstance(i, StoreInst) and not i.is_volatile:
                    accesses.append((i, MemoryLocation.get(i)))
                elif i.may_write_memory() or i.may_read_memory():
                    accesses.append((i, None))  # opaque access blocks all

        changed = False
        store_ptrs = []
        seen_ptr_ids = set()
        for i, loc in accesses:
            if isinstance(i, StoreInst) and loc is not None \
                    and _is_invariant(i.pointer, loop, set()) \
                    and i.pointer.id not in seen_ptr_ids:
                seen_ptr_ids.add(i.pointer.id)
                store_ptrs.append((i.pointer, loc))

        for ptr, ploc in store_ptrs:
            mark = ctx.trace.mark() if ctx.trace is not None else None
            group: List[Instruction] = []
            ok = True
            for i, loc in accesses:
                if loc is None:
                    ok = False
                    break
                r = aa.alias(loc, ploc)
                if i.pointer is ptr if isinstance(
                        i, (LoadInst, StoreInst)) else False:
                    same = True
                else:
                    same = r is AliasResult.MUST and (
                        loc.size == ploc.size)
                if same:
                    if not dt.dominates_block(i.parent, latch):
                        ok = False
                        break
                    group.append(i)
                elif r is not AliasResult.NO:
                    ok = False
                    break
            if not ok or not any(isinstance(g, StoreInst) for g in group):
                continue
            if any(g.type != group[0].type if isinstance(g, LoadInst)
                   else g.value.type != (
                       group[0].type if isinstance(group[0], LoadInst)
                       else group[0].value.type) for g in group):
                continue
            self._do_promote(fn, loop, preheader, header, latch, ptr,
                             group, ctx)
            ctx.stats.add(self.display_name, "# loads hoisted or sunk",
                          sum(1 for g in group))
            ctx.stats.add(self.display_name, "# scalars promoted")
            if ctx.trace is not None:
                ctx.trace.remark(
                    self.display_name, fn.name,
                    f"promoted {ptr.short()} to a register across the "
                    f"loop", since=mark)
            changed = True
            break  # analyses changed; promote one location per visit
        return changed

    def _do_promote(self, fn: Function, loop: Loop, preheader: BasicBlock,
                    header: BasicBlock, latch: BasicBlock, ptr: Value,
                    group: List[Instruction], ctx) -> None:
        vty = None
        for g in group:
            vty = g.type if isinstance(g, LoadInst) else g.value.type
            break
        # initial value in the preheader
        init = LoadInst(ptr, fn.unique_name("promoted"))
        preheader.insert_before(init, preheader.terminator)
        # carried value
        phi = PhiInst(vty, fn.unique_name("promo.phi"))
        phi.parent = header
        header.instructions.insert(0, phi)
        phi.add_incoming(init, preheader)

        # rewrite accesses in dominance order within the iteration
        order = sorted(group, key=lambda g: (
            ctx.analyses(fn).dt.depth(g.parent),
            g.parent.instructions.index(g)))
        current: Value = phi
        for g in order:
            if isinstance(g, LoadInst):
                g.replace_all_uses_with(current)
                g.erase_from_parent()
            else:
                current = g.value
                g.erase_from_parent()
        phi.add_incoming(current, latch)

        # store the final value at every exit; exits leave from the header,
        # so the carried value at the exit edge is the phi itself.
        for e in loop.exit_blocks():
            st = StoreInst(phi, ptr)
            # insert after the phis of the exit block
            idx = len(e.phis())
            st.parent = e
            e.instructions.insert(idx, st)
