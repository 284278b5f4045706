"""EarlyCSE: dominator-scoped common-subexpression and load elimination.

The load-availability logic is a heavy AA consumer: every store must be
checked against every available load (may it clobber it?), and those are
precisely the queries an optimistic answer turns into extra eliminated
instructions (Fig. 6: XSBench-CUDA "# instructions eliminated" +3.8%).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.aliasing import AliasResult
from ..analysis.cfg import predecessor_map
from ..analysis.memloc import MemoryLocation
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    CallInst,
    CastInst,
    GEPInst,
    ICmpInst,
    FCmpInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    SelectInst,
    StoreInst,
)
from ..ir.values import ConstantFloat, ConstantInt, ConstantNull, Value
from ..ir.instructions import COMMUTATIVE_BINOPS
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


def _op_key(v: Value):
    """Operand key: constants by value (distinct ConstantInt instances
    with the same value must CSE), everything else by identity."""
    if isinstance(v, ConstantInt):
        return ("ci", v.type.bits, v.value)
    if isinstance(v, ConstantFloat):
        return ("cf", v.type.bits, v.value)
    if isinstance(v, ConstantNull):
        return ("null",)
    return v.id


def _expr_key(inst: Instruction) -> Optional[Tuple]:
    """Hash key for pure, speculatable expressions."""
    if isinstance(inst, BinaryInst):
        ops = [_op_key(o) for o in inst.operands]
        if inst.op in COMMUTATIVE_BINOPS:
            ops.sort(key=repr)
        return ("bin", inst.op, str(inst.type), *ops)
    if isinstance(inst, (ICmpInst, FCmpInst)):
        return (inst.opcode, inst.pred, *(_op_key(o) for o in inst.operands))
    if isinstance(inst, GEPInst):
        return ("gep", str(inst.type), *(_op_key(o) for o in inst.operands))
    if isinstance(inst, CastInst):
        return ("cast", inst.op, str(inst.type), _op_key(inst.value))
    if isinstance(inst, SelectInst):
        return ("select", *(_op_key(o) for o in inst.operands))
    if isinstance(inst, CallInst) and inst.is_pure():
        return ("call", inst.callee_name, *(_op_key(o) for o in inst.operands))
    return None


class EarlyCSE(Pass):
    name = "early-cse"
    display_name = "Early CSE"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        self.ctx = ctx
        dt = ctx.analyses(fn).dt
        children: Dict[Optional[BasicBlock], List[BasicBlock]] = {}
        for bb in fn.blocks:
            if dt.is_reachable(bb):
                children.setdefault(dt.idom.get(bb), []).append(bb)

        preds = predecessor_map(fn)

        changed = [False]
        # iterative dom-tree DFS; each child gets copies of parent scopes
        stack: List[Tuple[BasicBlock, Dict, List]] = [(fn.entry, {}, [])]
        while stack:
            bb, exprs, loads = stack.pop()
            exprs = dict(exprs)
            loads = list(loads)
            if len(preds.get(bb, ())) > 1:
                # join point (incl. loop headers): memory may have been
                # written on another incoming path — bump the memory
                # generation, i.e. drop all available loads (pure
                # expressions stay valid by SSA dominance)
                loads = []
            self._process_block(bb, exprs, loads, changed)
            for child in children.get(bb, []):
                stack.append((child, exprs, loads))
        # only erases/replaces non-terminator instructions: the block
        # graph — and with it DT/LI — survives
        return PreservedAnalyses.from_changed(changed[0], preserves_cfg=True)

    def _process_block(self, bb: BasicBlock, exprs: Dict,
                       loads: List[Tuple[Value, MemoryLocation, Value]],
                       changed: List[bool]) -> None:
        ctx = self.ctx
        aa = ctx.aa
        for inst in list(bb.instructions):
            key = _expr_key(inst)
            if key is not None:
                prev = exprs.get(key)
                if prev is not None:
                    inst.replace_all_uses_with(prev)
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name,
                                  "# instructions eliminated")
                    changed[0] = True
                else:
                    exprs[key] = inst
                continue
            if isinstance(inst, LoadInst) and not inst.is_volatile:
                loc = MemoryLocation.get(inst)
                hit = None
                for ptr, ploc, val in loads:
                    if val.type != inst.type:
                        continue
                    if ptr is inst.pointer or aa.alias(ploc, loc) is AliasResult.MUST:
                        hit = val
                        break
                if hit is not None:
                    inst.replace_all_uses_with(hit)
                    inst.erase_from_parent()
                    ctx.stats.add(self.display_name,
                                  "# instructions eliminated")
                    ctx.stats.add(self.display_name, "# loads CSE'd")
                    changed[0] = True
                else:
                    loads.append((inst.pointer, loc, inst))
                continue
            if isinstance(inst, StoreInst):
                loc = MemoryLocation.get(inst)
                # drop available loads the store may clobber
                keep = []
                for entry in loads:
                    if aa.alias(entry[1], loc) is AliasResult.NO:
                        keep.append(entry)
                loads[:] = keep
                # the stored value is now the content of the location
                loads.append((inst.pointer, loc, inst.value))
                continue
            if isinstance(inst, (MemCpyInst, MemSetInst)):
                loc = MemoryLocation.for_dst(inst)
                loads[:] = [e for e in loads
                            if aa.alias(e[1], loc) is AliasResult.NO]
                continue
            if isinstance(inst, CallInst) and inst.may_write_memory():
                loads.clear()
