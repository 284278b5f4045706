"""Dominator tree (Cooper–Harvey–Kennedy iterative algorithm)."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from .cfg import predecessor_map, reverse_postorder


class DominatorTree:
    """Immediate-dominator tree over the reachable CFG of a function."""

    def __init__(self, fn: Function):
        self.function = fn
        self.rpo = reverse_postorder(fn)
        self._rpo_index: Dict[BasicBlock, int] = {
            bb: i for i, bb in enumerate(self.rpo)
        }
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._compute()

    def _compute(self) -> None:
        entry = self.function.entry
        index = self._rpo_index
        preds = predecessor_map(self.function)
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {entry: entry}

        def common_dominator(a: BasicBlock, b: BasicBlock) -> BasicBlock:
            while a is not b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for bb in self.rpo:
                if bb is entry:
                    continue
                new_idom: Optional[BasicBlock] = None
                for p in preds[bb]:
                    if p not in index:  # unreachable predecessor
                        continue
                    if p in idom:
                        new_idom = (p if new_idom is None
                                    else common_dominator(p, new_idom))
                if new_idom is not None and idom.get(bb) is not new_idom:
                    idom[bb] = new_idom
                    changed = True
        self.idom = idom
        self.idom[entry] = None  # canonical: entry has no idom

    # -- queries --------------------------------------------------------------
    def is_reachable(self, bb: BasicBlock) -> bool:
        return bb in self._rpo_index

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does block ``a`` dominate block ``b``?  (reflexive)"""
        if a is b:
            return True
        runner: Optional[BasicBlock] = self.idom.get(b)
        while runner is not None:
            if runner is a:
                return True
            runner = self.idom.get(runner)
        return False

    def dominates(self, a: Instruction, b: Instruction) -> bool:
        """Does instruction ``a`` strictly dominate instruction ``b``?"""
        ba, bb_ = a.parent, b.parent
        if ba is bb_:
            insts = ba.instructions
            return insts.index(a) < insts.index(b)
        return self.dominates_block(ba, bb_)

    def children(self, bb: BasicBlock) -> List[BasicBlock]:
        return [b for b, i in self.idom.items() if i is bb]

    def depth(self, bb: BasicBlock) -> int:
        d = 0
        runner = self.idom.get(bb)
        while runner is not None:
            d += 1
            runner = self.idom.get(runner)
        return d
