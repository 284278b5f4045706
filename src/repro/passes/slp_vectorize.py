"""SLP vectorizer: roll 4 isomorphic scalar lanes into vector code.

Finds groups of 4 stores to consecutive addresses whose stored values
are isomorphic expression trees over consecutive loads / shared scalars,
and rewrites the group as vector loads + vector ops + one vector store.

Legality needs alias queries: any write interleaved between the lanes'
loads and the vector insertion point must be NoAlias with every lane
location (MiniFE: "# vector instructions generated" +33%, Fig. 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.aliasing import AliasResult
from ..analysis.basic_aa import decompose_pointer
from ..analysis.memloc import MemoryLocation
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    BinaryInst,
    GEPInst,
    Instruction,
    LoadInst,
    StoreInst,
)
from ..ir.types import VectorType, ptr
from ..ir.values import ConstantFloat, ConstantInt, Value
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass

LANES = 4
MAX_TREE_DEPTH = 5


class _Lanes:
    """An isomorphic tree node across the four lanes."""

    def __init__(self, kind: str, values: List[Value]):
        self.kind = kind  # "load" | "binop" | "splat"
        self.values = values
        self.children: List["_Lanes"] = []


class SLPVectorize(Pass):
    name = "slp-vectorizer"
    display_name = "SLP Vectorizer"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        changed = False
        for bb in list(fn.blocks):
            while self._vectorize_block(fn, bb, ctx):
                changed = True
        # rewrites straight-line groups inside blocks; the CFG is untouched
        return PreservedAnalyses.from_changed(changed, preserves_cfg=True)

    # -- one group per call -----------------------------------------------
    def _vectorize_block(self, fn: Function, bb: BasicBlock,
                         ctx: CompilationContext) -> bool:
        groups = self._find_store_groups(bb)
        for stores in groups:
            tree = self._build_tree([s.value for s in stores], bb, 0)
            if tree is None:
                continue
            mark = ctx.trace.mark() if ctx.trace is not None else None
            if not self._legal(bb, stores, tree, ctx):
                continue
            # rendered before _emit, which erases the stores (and drops
            # their operands)
            what = (f"vectorized store group at "
                    f"{stores[0].pointer.short()} (lanes={len(stores)})"
                    if ctx.trace is not None else None)
            self._emit(fn, bb, stores, tree, ctx)
            if ctx.trace is not None:
                ctx.trace.remark(self.display_name, fn.name, what,
                                 since=mark)
            return True
        return False

    def _find_store_groups(self, bb: BasicBlock) -> List[List[StoreInst]]:
        """Runs of 4 stores to base + (k, k+1, k+2, k+3) elements."""
        by_base: Dict[int, List[Tuple[int, StoreInst]]] = {}
        for inst in bb.instructions:
            if not isinstance(inst, StoreInst) or inst.is_volatile:
                continue
            if isinstance(inst.value.type, VectorType):
                continue
            base, off, varp = decompose_pointer(inst.pointer)
            if varp:
                continue
            by_base.setdefault(base.id, []).append((off, inst))
        groups = []
        for entries in by_base.values():
            entries.sort(key=lambda e: e[0])
            i = 0
            while i + LANES <= len(entries):
                cand = entries[i:i + LANES]
                esz = cand[0][1].value.type.size()
                offs = [c[0] for c in cand]
                tys = {c[1].value.type for c in cand}
                if len(tys) == 1 and all(
                        offs[k] == offs[0] + k * esz for k in range(LANES)):
                    groups.append([c[1] for c in cand])
                    i += LANES
                else:
                    i += 1
        return groups

    # -- isomorphic trees -----------------------------------------------------
    def _build_tree(self, values: List[Value], bb: BasicBlock,
                    depth: int) -> Optional[_Lanes]:
        if depth > MAX_TREE_DEPTH:
            return None
        first = values[0]
        # splat: all lanes are the same value (or equal constants)
        if all(v is first for v in values):
            return _Lanes("splat", values)
        if all(isinstance(v, ConstantInt) for v in values) and len(
                {v.value for v in values}) == 1:
            return _Lanes("splat", values)
        if all(isinstance(v, ConstantFloat) for v in values) and len(
                {v.value for v in values}) == 1:
            return _Lanes("splat", values)
        if all(isinstance(v, LoadInst) and v.parent is bb
               and not v.is_volatile and len(v.users) == 1 for v in values):
            bases = [decompose_pointer(v.pointer) for v in values]
            b0, o0, varp0 = bases[0]
            esz = first.type.size()
            if all(not vp for _, _, vp in bases) and all(
                    b.id == b0.id and o == o0 + k * esz
                    for k, (b, o, vp) in enumerate(bases)) and len(
                        {v.type for v in values}) == 1:
                return _Lanes("load", values)
            return None
        if all(isinstance(v, BinaryInst) and v.parent is bb
               and len(v.users) == 1 for v in values):
            ops = {v.op for v in values}
            if len(ops) != 1:
                return None
            left = self._build_tree([v.lhs for v in values], bb, depth + 1)
            if left is None:
                return None
            right = self._build_tree([v.rhs for v in values], bb, depth + 1)
            if right is None:
                return None
            node = _Lanes("binop", values)
            node.children = [left, right]
            return node
        return None

    # -- legality -----------------------------------------------------------
    def _collect_loads(self, tree: _Lanes, out: List[LoadInst]) -> None:
        if tree.kind == "load":
            out.extend(tree.values)
        for c in tree.children:
            self._collect_loads(c, out)

    def _legal(self, bb: BasicBlock, stores: List[StoreInst], tree: _Lanes,
               ctx: CompilationContext) -> bool:
        aa = ctx.aa
        loads: List[LoadInst] = []
        self._collect_loads(tree, loads)
        group = set(stores) | set(loads)
        insts = bb.instructions
        positions = [insts.index(s) for s in stores] + [
            insts.index(l) for l in loads]
        lo, hi = min(positions), max(positions)
        insertion = max(insts.index(s) for s in stores)
        # every non-group write inside the region must not touch any lane
        lane_locs = [MemoryLocation.get(x) for x in loads + stores]
        for k in range(lo, hi + 1):
            mid = insts[k]
            if mid in group:
                continue
            if not mid.may_write_memory():
                continue
            if not isinstance(mid, StoreInst):
                return False  # opaque writer (call/memcpy): give up
            mloc = MemoryLocation.get(mid)
            for loc in lane_locs:
                if aa.alias(mloc, loc) is not AliasResult.NO:
                    return False
        # group stores must not clobber group loads that are moved past them
        for l in loads:
            lpos = insts.index(l)
            lloc = MemoryLocation.get(l)
            for s in stores:
                spos = insts.index(s)
                if spos < lpos:
                    continue  # load happens first anyway
                if lpos < spos <= insertion:
                    if aa.alias(MemoryLocation.get(s), lloc) \
                            is not AliasResult.NO:
                        return False
        return True

    # -- emission ----------------------------------------------------------
    def _emit(self, fn: Function, bb: BasicBlock, stores: List[StoreInst],
              tree: _Lanes, ctx: CompilationContext) -> None:
        from ..ir.builder import IRBuilder

        anchor = max(stores, key=lambda s: bb.instructions.index(s))
        new_insts: List[Instruction] = []

        def insert(inst: Instruction) -> Instruction:
            bb.insert_before(inst, anchor)
            new_insts.append(inst)
            return inst

        def emit_tree(node: _Lanes) -> Value:
            first = node.values[0]
            if node.kind == "splat":
                from ..ir.instructions import ShuffleSplatInst
                return insert(ShuffleSplatInst(first, LANES,
                                               fn.unique_name("slp.splat")))
            if node.kind == "load":
                vty = VectorType(first.type, LANES)
                from ..ir.instructions import CastInst, LoadInst as LI
                cast = insert(CastInst("bitcast", first.pointer, ptr(vty),
                                       fn.unique_name("slp.cast")))
                vl = insert(LI(cast, fn.unique_name("slp.load")))
                vl.tbaa = first.tbaa
                vl.scoped = first.scoped
                ctx.stats.add(self.display_name,
                              "# vector instructions generated")
                return vl
            left = emit_tree(node.children[0])
            right = emit_tree(node.children[1])
            v = insert(BinaryInst(first.op, left, right,
                                  fn.unique_name("slp.bin")))
            ctx.stats.add(self.display_name, "# vector instructions generated")
            return v

        vec_value = emit_tree(tree)
        del emit_tree  # a recursive closure is a reference cycle
        vty = VectorType(stores[0].value.type, LANES)
        from ..ir.instructions import CastInst
        cast = insert(CastInst("bitcast", stores[0].pointer, ptr(vty),
                               fn.unique_name("slp.cast")))
        st = insert(StoreInst(vec_value, cast))
        st.tbaa = stores[0].tbaa
        st.scoped = stores[0].scoped
        ctx.stats.add(self.display_name, "# vector instructions generated")
        ctx.stats.add(self.display_name, "# store groups vectorized")
        for s in stores:
            s.erase_from_parent()
        # scalar lanes left without users get cleaned by DCE
