"""Loop vectorizer (VF = 4) for canonical counted loops.

Legality follows LLVM's LoopAccessAnalysis in miniature:

* innermost loop of the canonical header/body[/latch] shape with a
  unit-step integer induction and an invariant upper bound;
* every memory access has a unit-stride affine address ``base[i + c]``
  with an invariant base;
* accesses with *distinct* bases must be proven NoAlias (these are the
  queries ORAQL receives; a wrong no-alias here vectorizes a genuinely
  dependent loop and corrupts lanes);
* same-base accesses must target the same element when a store is
  involved (dependence distance 0);
* no FP reductions (bit-exact verification forbids reassociation; LLVM
  likewise requires fast-math) — integer reductions are allowed.

Transform: a vector main loop over the VF-divisible prefix, reusing the
original loop as the scalar epilogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.aliasing import AliasResult
from ..analysis.loops import Loop
from ..analysis.memloc import BEFORE_OR_AFTER, MemoryLocation
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiInst,
    SelectInst,
    StoreInst,
)
from ..ir.types import IntType, VectorType, I64, ptr
from ..ir.values import ConstantInt, Value
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass

VF = 4


@dataclass
class _Shape:
    preheader: BasicBlock
    header: BasicBlock
    body_blocks: List[BasicBlock]
    exit: BasicBlock
    iv: PhiInst
    iv_next: BinaryInst
    bound: Value
    cmp: ICmpInst
    int_reductions: List[Tuple[PhiInst, BinaryInst]]


def _affine_index(idx: Value, iv: PhiInst) -> Optional[Tuple[int, Value]]:
    """Recognize ``i``, ``i + c`` / ``c + i`` / ``i - c``; returns
    (const, None) marker? -> (offset, base_is_iv).  Returns the constant
    offset when the index is iv-affine with coefficient 1, else None."""
    if idx is iv:
        return (0, iv)
    if isinstance(idx, BinaryInst):
        if idx.op == "add":
            if idx.lhs is iv and isinstance(idx.rhs, ConstantInt):
                return (idx.rhs.value, iv)
            if idx.rhs is iv and isinstance(idx.lhs, ConstantInt):
                return (idx.lhs.value, iv)
        if idx.op == "sub" and idx.lhs is iv and isinstance(
                idx.rhs, ConstantInt):
            return (-idx.rhs.value, iv)
    return None


class LoopVectorize(Pass):
    name = "loop-vectorize"
    display_name = "Loop Vectorizer"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        li = ctx.analyses(fn).li
        changed = False
        for loop in li.innermost():
            shape = self._match_shape(loop)
            if shape is None:
                continue
            mark = ctx.trace.mark() if ctx.trace is not None else None
            plan = self._check_legal(fn, loop, shape, ctx)
            if plan is None:
                continue
            self._transform(fn, loop, shape, plan, ctx)
            ctx.stats.add(self.display_name, "# vectorized loops")
            if ctx.trace is not None:
                ctx.trace.remark(
                    self.display_name, fn.name,
                    f"vectorized loop at {shape.header.name} (VF={VF})",
                    since=mark)
            # mid-run refresh: later iterations walk the rebuilt CFG
            ctx.invalidate(fn)
            changed = True
        return PreservedAnalyses.from_changed(changed)

    # -- shape matching ------------------------------------------------------
    def _match_shape(self, loop: Loop) -> Optional[_Shape]:
        preheader = loop.preheader()
        if preheader is None:
            return None
        header = loop.header
        if len(loop.blocks) > 3:
            return None
        latches = loop.latches()
        if len(latches) != 1:
            return None
        exits = loop.exit_blocks()
        if len(exits) != 1 or loop.exiting_blocks() != [header]:
            return None
        exit_bb = exits[0]
        if exit_bb.phis():
            return None
        if any(p not in loop.blocks and p is not preheader
               for p in exit_bb.predecessors):
            return None
        term = header.terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return None
        cond = term.condition
        if not isinstance(cond, ICmpInst) or cond.pred != "slt":
            return None
        if term.targets[1] is not exit_bb:
            return None
        iv_cand, bound = cond.operands
        if not isinstance(iv_cand, PhiInst) or iv_cand.parent is not header:
            return None
        if isinstance(bound, Instruction) and bound.parent in loop.blocks:
            return None
        # induction: i = phi [start, pre], [i+1, latch]
        iv = iv_cand
        iv_next = None
        for v, b in iv.incoming:
            if b in loop.blocks:
                if isinstance(v, BinaryInst) and v.op == "add" \
                        and v.lhs is iv and isinstance(v.rhs, ConstantInt) \
                        and v.rhs.value == 1:
                    iv_next = v
        if iv_next is None:
            return None
        # other header phis must be integer reductions (add with const-0
        # friendly init is not required; any invariant init works)
        int_reductions = []
        for phi in header.phis():
            if phi is iv:
                continue
            if not isinstance(phi.type, IntType):
                return None
            upd = phi.incoming_for_block(latches[0])
            init = None
            for v, b in phi.incoming:
                if b not in loop.blocks:
                    init = v
            if not isinstance(upd, BinaryInst) or upd.op not in ("add",):
                return None
            if upd.lhs is not phi and upd.rhs is not phi:
                return None
            if upd is iv_next:
                return None
            int_reductions.append((phi, upd))
        body_blocks = [bb for bb in loop.body_in_layout_order()
                       if bb is not header]
        return _Shape(preheader, header, body_blocks, exit_bb, iv, iv_next,
                      bound, cond, int_reductions)

    # -- legality -----------------------------------------------------------
    def _check_legal(self, fn: Function, loop: Loop, shape: _Shape,
                     ctx: CompilationContext) -> Optional[Dict]:
        aa = ctx.aa
        iv = shape.iv
        reads: List[Tuple[LoadInst, Value, int]] = []   # (inst, base, off)
        writes: List[Tuple[StoreInst, Value, int]] = []
        body_insts: List[Instruction] = []
        reduction_updates = {upd for _, upd in shape.int_reductions}

        # the vector body is formed from all non-header loop instructions
        # plus nothing from the header except phis handled separately
        for bb in shape.body_blocks:
            if len(shape.body_blocks) > 1 and bb is not shape.body_blocks[0]:
                # second block may only contain the iv increment + branch
                for i in bb.instructions:
                    if i is shape.iv_next or i.is_terminator:
                        continue
                    return None
                continue
            for i in bb.instructions:
                body_insts.append(i)

        for i in body_insts:
            if i.is_terminator or i is shape.iv_next or i in reduction_updates:
                continue
            if isinstance(i, LoadInst):
                aff = self._address(i.pointer, iv, loop)
                if aff is None:
                    return None
                reads.append((i, aff[0], aff[1]))
            elif isinstance(i, StoreInst):
                aff = self._address(i.pointer, iv, loop)
                if aff is None:
                    return None
                writes.append((i, aff[0], aff[1]))
            elif isinstance(i, BinaryInst):
                if i.op in ("sdiv", "udiv", "srem", "urem", "frem"):
                    return None
            elif isinstance(i, (ICmpInst, FCmpInst, SelectInst, CastInst)):
                pass
            elif isinstance(i, GEPInst):
                pass
            elif isinstance(i, CallInst):
                return None
            elif isinstance(i, PhiInst):
                return None
            else:
                return None
            # every user must stay inside the loop
            for u in i.users:
                ub = getattr(u, "parent", None)
                if ub is not None and ub not in loop.blocks:
                    return None

        if not writes:
            return None  # nothing to gain; reductions-only loops are rare

        # reduction updates must live in the widened body
        body_set = set(body_insts)
        for _, upd in shape.int_reductions:
            if upd not in body_set:
                return None

        # dependence checks
        for w, wbase, woff in writes:
            for r, rbase, roff in reads + [x for x in writes if x[0] is not w]:
                if wbase is rbase:
                    if woff != roff:
                        return None  # nonzero dependence distance
                    continue
                la = MemoryLocation(w.pointer, BEFORE_OR_AFTER, w.tbaa,
                                    w.scoped)
                lb = MemoryLocation(r.pointer, BEFORE_OR_AFTER, r.tbaa,
                                    r.scoped)
                if aa.alias(la, lb) is not AliasResult.NO:
                    return None
        return {"reads": reads, "writes": writes, "body": body_insts}

    def _address(self, pointer: Value, iv: PhiInst,
                 loop: Loop) -> Optional[Tuple[Value, int]]:
        """Match ``gep base, [i+c]`` / ``gep base, [0, i+c]`` with an
        invariant scalar-element base; returns (base, c)."""
        if not isinstance(pointer, GEPInst):
            return None
        base = pointer.pointer
        if isinstance(base, Instruction) and base.parent in loop.blocks:
            return None
        idx = pointer.indices
        if len(idx) == 1:
            aff = _affine_index(idx[0], iv)
        elif len(idx) == 2 and isinstance(idx[0], ConstantInt) \
                and idx[0].value == 0:
            aff = _affine_index(idx[1], iv)
        else:
            return None
        if aff is None:
            return None
        if pointer.type.pointee.is_aggregate or pointer.type.pointee.is_vector:
            return None
        return (base, aff[0])

    # -- transform ------------------------------------------------------------
    def _transform(self, fn: Function, loop: Loop, shape: _Shape,
                   plan: Dict, ctx: CompilationContext) -> None:
        from ..ir.builder import IRBuilder

        pre = shape.preheader
        header = shape.header
        iv = shape.iv

        # start value of the induction
        start = None
        for v, b in iv.incoming:
            if b not in loop.blocks:
                start = v
        assert start is not None

        vec_header = fn.add_block(fn.unique_name("vec.header"), after=pre)
        vec_body = fn.add_block(fn.unique_name("vec.body"), after=vec_header)
        mid = fn.add_block(fn.unique_name("vec.mid"), after=vec_body)

        # preheader: m = bound - ((bound - start) % VF), re-target branch
        pterm = pre.terminator
        b = IRBuilder()
        b.block = pre
        pterm.erase_from_parent()
        span = b.sub(shape.bound, start)
        rem = b.srem(span, b.i64(VF))
        m = b.sub(shape.bound, rem)
        b.br(vec_header)

        # vec.header: vi = phi [start, pre], [vi+VF, vec.body]
        b.position_at_end(vec_header)
        vi = b.phi(I64, "vi")
        vi.add_incoming(start, pre)
        vred: Dict[PhiInst, PhiInst] = {}
        for phi, upd in shape.int_reductions:
            init = None
            for v, bb_ in phi.incoming:
                if bb_ not in loop.blocks:
                    init = v
            vphi = b.phi(VectorType(phi.type, VF), fn.unique_name("vred"))
            # lane0 = init, other lanes = identity(0 for add)
            zero = ConstantInt(phi.type, 0)
            seed = b.splat(zero, VF)
            seed = b.insertelement(seed, init, 0)
            vphi.add_incoming(seed, pre)
            vred[phi] = vphi
        # the seed splat/insert were appended to vec_header after the phi —
        # relocate them to the preheader where they belong
        to_move = [i for i in vec_header.instructions
                   if not isinstance(i, PhiInst)]
        for i in to_move:
            vec_header.instructions.remove(i)
            i.parent = None
            pre.insert_before(i, pre.terminator)

        b.position_at_end(vec_header)
        vcmp = b.icmp("slt", vi, m)
        b.cond_br(vcmp, vec_body, mid)

        # vec.body: widen every body instruction
        b.position_at_end(vec_body)
        vmap: Dict[Value, Value] = {iv: None}  # filled lazily
        splats: Dict[int, Value] = {}
        reduction_updates = {upd: phi for phi, upd in shape.int_reductions}

        def iv_vector() -> Value:
            if vmap[iv] is None:
                lane = b.splat(vi, VF)
                steps = b.splat(b.i64(0), VF)
                for k in range(VF):
                    steps = b.insertelement(steps, b.i64(k), k)
                vmap[iv] = b.binop("add", lane, steps)
            return vmap[iv]

        def widen_operand(v: Value) -> Value:
            if v in vmap:
                got = vmap[v]
                if got is None:
                    return iv_vector()
                return got
            if v is iv:
                return iv_vector()
            # invariant: splat once
            got = splats.get(v.id)
            if got is None:
                got = b.splat(v, VF)
                splats[v.id] = got
            return got

        for phi, vphi in vred.items():
            vmap[phi] = vphi

        for inst in plan["body"]:
            if inst.is_terminator or inst is shape.iv_next:
                continue
            if isinstance(inst, GEPInst):
                continue  # folded into the vector load/store below
            if isinstance(inst, LoadInst):
                base, off = self._address(inst.pointer, iv, loop)
                addr_i = b.add(vi, b.i64(off)) if off else vi
                g = b.gep(base, [addr_i] if len(
                    inst.pointer.indices) == 1 else [0, addr_i])
                vty = VectorType(inst.type, VF)
                cast = b.cast("bitcast", g, ptr(vty))
                vl = b.load(cast, tbaa=inst.tbaa)
                vl.scoped = inst.scoped
                vmap[inst] = vl
            elif isinstance(inst, StoreInst):
                base, off = self._address(inst.pointer, iv, loop)
                addr_i = b.add(vi, b.i64(off)) if off else vi
                g = b.gep(base, [addr_i] if len(
                    inst.pointer.indices) == 1 else [0, addr_i])
                vty = VectorType(inst.value.type, VF)
                cast = b.cast("bitcast", g, ptr(vty))
                st = b.store(widen_operand(inst.value), cast, tbaa=inst.tbaa)
                st.scoped = inst.scoped
            elif isinstance(inst, BinaryInst):
                if inst in reduction_updates:
                    phi = reduction_updates[inst]
                    other = inst.rhs if inst.lhs is phi else inst.lhs
                    upd = b.binop(inst.op, vred[phi], widen_operand(other))
                    vmap[inst] = upd
                else:
                    vmap[inst] = b.binop(inst.op, widen_operand(inst.lhs),
                                         widen_operand(inst.rhs))
            elif isinstance(inst, ICmpInst):
                vmap[inst] = b.icmp(inst.pred, widen_operand(inst.operands[0]),
                                    widen_operand(inst.operands[1]))
            elif isinstance(inst, FCmpInst):
                vmap[inst] = b.fcmp(inst.pred, widen_operand(inst.operands[0]),
                                    widen_operand(inst.operands[1]))
            elif isinstance(inst, SelectInst):
                c, t, f = inst.operands
                vmap[inst] = b.select(widen_operand(c), widen_operand(t),
                                      widen_operand(f))
            elif isinstance(inst, CastInst):
                src = widen_operand(inst.value)
                vmap[inst] = b.cast(inst.op, src,
                                    VectorType(inst.type, VF))
        vi_next = b.add(vi, b.i64(VF))
        vi.add_incoming(vi_next, vec_body)
        for phi, vphi in vred.items():
            vphi.add_incoming(vmap[reduction_updates_inv(vred, phi,
                                                         shape)], vec_body)
        b.br(vec_header)

        # mid: reduce vector accumulators, then enter the scalar epilogue
        b.position_at_end(mid)
        red_fix: Dict[PhiInst, Value] = {}
        for phi, vphi in vred.items():
            red = b.call("llvm.vector.reduce.add", [vphi], phi.type)
            red_fix[phi] = red
        b.br(header)

        # re-point the original loop: preheader edge now comes from mid,
        # starting at vi == m with the reduced accumulator values
        for phi in header.phis():
            for i, blk in enumerate(phi.incoming_blocks):
                if blk is pre:
                    phi.incoming_blocks[i] = mid
                    if phi is iv:
                        phi.set_operand(i, vi)
                    elif phi in red_fix:
                        phi.set_operand(i, red_fix[phi])


def reduction_updates_inv(vred, phi, shape) -> BinaryInst:
    for p, upd in shape.int_reductions:
        if p is phi:
            return upd
    raise KeyError(phi)
