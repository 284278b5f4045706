"""Natural-loop detection (back edges on the dominator tree) and LoopInfo."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import BranchInst, ICmpInst, Instruction, PhiInst
from ..ir.values import ConstantInt, Value
from .cfg import predecessor_map
from .dominators import DominatorTree


class Loop:
    """A natural loop: header + body blocks, nested sub-loops."""

    def __init__(self, header: BasicBlock):
        self.header = header
        self.blocks: Set[BasicBlock] = {header}
        self.parent: Optional["Loop"] = None
        self.subloops: List["Loop"] = []

    # -- shape queries ---------------------------------------------------
    def contains(self, bb: BasicBlock) -> bool:
        return bb in self.blocks

    def contains_inst(self, inst: Instruction) -> bool:
        return inst.parent in self.blocks

    @property
    def depth(self) -> int:
        d, l = 1, self.parent
        while l is not None:
            d += 1
            l = l.parent
        return d

    def preheader(self) -> Optional[BasicBlock]:
        """The unique out-of-loop predecessor of the header whose only
        successor is the header, if any (loop-simplify form)."""
        outside = [p for p in self.header.predecessors if p not in self.blocks]
        if len(outside) == 1 and outside[0].successors == [self.header]:
            return outside[0]
        return None

    def latches(self) -> List[BasicBlock]:
        return [p for p in self.header.predecessors if p in self.blocks]

    def exit_blocks(self) -> List[BasicBlock]:
        exits = []
        for bb in self.body_in_layout_order():  # deterministic order
            for s in bb.successors:
                if s not in self.blocks and s not in exits:
                    exits.append(s)
        return exits

    def exiting_blocks(self) -> List[BasicBlock]:
        return [bb for bb in self.body_in_layout_order()
                if any(s not in self.blocks for s in bb.successors)]

    def body_in_layout_order(self) -> List[BasicBlock]:
        fn = self.header.parent
        return [bb for bb in fn.blocks if bb in self.blocks]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Loop header={self.header.name} blocks={len(self.blocks)}>"


class LoopInfo:
    """All natural loops of a function, with the nesting forest."""

    def __init__(self, fn: Function, dt: Optional[DominatorTree] = None):
        self.function = fn
        self.dt = dt or DominatorTree(fn)
        self.loops: List[Loop] = []
        self.loop_of_block: Dict[BasicBlock, Loop] = {}
        self._discover()

    def _discover(self) -> None:
        preds = predecessor_map(self.function)
        headers: Dict[BasicBlock, Loop] = {}
        # find back edges: tail -> header where header dominates tail
        for bb in self.dt.rpo:
            for succ in bb.successors:
                if self.dt.is_reachable(succ) and self.dt.dominates_block(succ, bb):
                    loop = headers.get(succ)
                    if loop is None:
                        loop = Loop(succ)
                        headers[succ] = loop
                        self.loops.append(loop)
                    # collect the natural loop body by walking preds from tail
                    work = [bb]
                    while work:
                        node = work.pop()
                        if node in loop.blocks:
                            continue
                        loop.blocks.add(node)
                        for p in preds.get(node, []):
                            if self.dt.is_reachable(p):
                                work.append(p)

        # nesting: loop A is inside B if A's header is in B and A is not B
        for a in self.loops:
            best: Optional[Loop] = None
            for b in self.loops:
                if a is b or a.header not in b.blocks:
                    continue
                if best is None or len(b.blocks) < len(best.blocks):
                    best = b
            a.parent = best
            if best is not None:
                best.subloops.append(a)

        # innermost loop per block
        for loop in sorted(self.loops, key=lambda l: -len(l.blocks)):
            for bb in loop.blocks:
                self.loop_of_block[bb] = loop

    def loop_for(self, bb: BasicBlock) -> Optional[Loop]:
        return self.loop_of_block.get(bb)

    def top_level(self) -> List[Loop]:
        return [l for l in self.loops if l.parent is None]

    def innermost(self) -> List[Loop]:
        return [l for l in self.loops if not l.subloops]

    def release(self) -> None:
        """Break the parent/sub-loop cycles so the forest is freed by
        reference counting.  Each loop keeps its header and blocks."""
        for loop in self.loops:
            loop.parent = None
            loop.subloops.clear()


def loop_trip_count(loop: Loop) -> Optional[int]:
    """Constant trip count for canonical ``for (i = c0; i < c1; i += c2)``
    loops, else None.  Used by the vectorizers' legality/cost checks."""
    header = loop.header
    term = header.terminator
    if not isinstance(term, BranchInst) or not term.is_conditional:
        # try a single exiting latch instead
        exiting = loop.exiting_blocks()
        if len(exiting) != 1:
            return None
        term = exiting[0].terminator
        if not isinstance(term, BranchInst) or not term.is_conditional:
            return None
    cond = term.condition
    if not isinstance(cond, ICmpInst):
        return None
    lhs, rhs = cond.operands
    if not isinstance(rhs, ConstantInt):
        return None
    # find the canonical induction phi
    if not isinstance(lhs, PhiInst):
        return None
    start = None
    step = None
    from ..ir.instructions import BinaryInst
    for v, b in lhs.incoming:
        if b in loop.blocks:
            if (isinstance(v, BinaryInst) and v.op == "add"
                    and v.lhs is lhs and isinstance(v.rhs, ConstantInt)):
                step = v.rhs.value
        else:
            if isinstance(v, ConstantInt):
                start = v.value
    if start is None or step is None or step == 0:
        return None
    bound = rhs.value
    if cond.pred in ("slt", "ult") and step > 0 and bound > start:
        return max(0, -(-(bound - start) // step))
    if cond.pred in ("sle", "ule") and step > 0 and bound >= start:
        return max(0, -(-(bound - start + 1) // step))
    return None
