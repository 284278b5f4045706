"""Basic blocks: straight-line instruction lists ending in a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional

from .instructions import BranchInst, Instruction, PhiInst
from .types import LABEL
from .values import Value


class BasicBlock(Value):
    """A label-valued container of instructions inside a function."""

    __slots__ = ("instructions", "parent")

    def __init__(self, name: str = "", parent=None):
        super().__init__(LABEL, name)
        self.instructions: List[Instruction] = []
        self.parent = parent  # Function

    # -- structure --------------------------------------------------------
    def append(self, inst: Instruction) -> Instruction:
        assert inst.parent is None, "instruction already inserted"
        inst.parent = self
        self.instructions.append(inst)
        return inst

    def insert_before(self, inst: Instruction, before: Instruction) -> Instruction:
        assert inst.parent is None
        idx = self.instructions.index(before)
        inst.parent = self
        self.instructions.insert(idx, inst)
        return inst

    def insert_at_front(self, inst: Instruction) -> Instruction:
        assert inst.parent is None
        inst.parent = self
        # phis stay first
        idx = 0
        while idx < len(self.instructions) and isinstance(
                self.instructions[idx], PhiInst):
            idx += 1
        self.instructions.insert(idx, inst)
        return inst

    @property
    def terminator(self) -> Optional[Instruction]:
        insts = self.instructions
        if insts and insts[-1].is_terminator:
            return insts[-1]
        return None

    def phis(self) -> List[PhiInst]:
        out = []
        for i in self.instructions:
            if not isinstance(i, PhiInst):
                break
            out.append(i)
        return out

    # -- CFG --------------------------------------------------------------
    @property
    def successors(self) -> List["BasicBlock"]:
        insts = self.instructions
        if insts and isinstance(insts[-1], BranchInst):  # a terminator
            return list(insts[-1].targets)
        return []

    @property
    def predecessors(self) -> List["BasicBlock"]:
        if self.parent is None:
            return []
        preds = []
        for bb in self.parent.blocks:
            if self in bb.successors:
                preds.append(bb)
        return preds

    def erase_from_parent(self) -> None:
        """Remove the block; callers must have fixed up uses/phis first."""
        for inst in list(self.instructions):
            inst.erase_from_parent()
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None

    def drop_all_references(self) -> None:
        """Every instruction drops its operands and its parent, and the
        block forgets its instructions and its function (see
        :meth:`Module.drop_all_references`)."""
        for inst in self.instructions:
            inst.drop_all_references()
            inst.parent = None
        self.instructions.clear()
        self.parent = None

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def short(self) -> str:
        return f"%{self.name or self.id}"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name or self.id} ({len(self.instructions)} insts)>"
