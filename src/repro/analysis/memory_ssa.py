"""MemorySSA: an SSA form over memory state [2].

Stores (and other writers) become MemoryDefs, loads become MemoryUses,
and CFG joins get MemoryPhis.  The *walker* answers "what is the nearest
access that may clobber this location?" by issuing alias queries — in the
paper's Quicksilver run, 61% of all optimistic ORAQL queries originate
here (§V-D).

As in LLVM, uses can be *optimized* at construction time (each MemoryUse
caches its clobbering def), which is when the bulk of the queries fire
under the "MemorySSA" pass name.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    CallInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    StoreInst,
)
from .aliasing import AAResults, ModRefInfo
from .cfg import predecessor_map, reverse_postorder
from .memloc import MemoryLocation

_ids = itertools.count()


class MemoryAccess:
    __slots__ = ("id",)

    def __init__(self):
        self.id = next(_ids)


class LiveOnEntry(MemoryAccess):
    def __repr__(self) -> str:  # pragma: no cover
        return "liveOnEntry"


class MemoryDef(MemoryAccess):
    __slots__ = ("inst", "defining")

    def __init__(self, inst: Instruction, defining: MemoryAccess):
        super().__init__()
        self.inst = inst
        self.defining = defining

    def __repr__(self) -> str:  # pragma: no cover
        return f"MemoryDef({self.inst.opcode}#{self.inst.id})"


class MemoryUse(MemoryAccess):
    __slots__ = ("inst", "defining", "optimized")

    def __init__(self, inst: Instruction, defining: MemoryAccess):
        super().__init__()
        self.inst = inst
        self.defining = defining
        self.optimized: Optional[MemoryAccess] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"MemoryUse({self.inst.opcode}#{self.inst.id})"


class MemoryPhi(MemoryAccess):
    __slots__ = ("block", "incoming")

    def __init__(self, block: BasicBlock):
        super().__init__()
        self.block = block
        self.incoming: Dict[BasicBlock, MemoryAccess] = {}

    def __repr__(self) -> str:  # pragma: no cover
        return f"MemoryPhi({self.block.name})"


def _writes(inst: Instruction) -> bool:
    if isinstance(inst, (StoreInst, MemCpyInst, MemSetInst)):
        return True
    if isinstance(inst, CallInst):
        return inst.may_write_memory()
    return False


def _reads(inst: Instruction) -> bool:
    if isinstance(inst, LoadInst):
        return True
    if isinstance(inst, MemCpyInst):
        return True
    if isinstance(inst, CallInst):
        return inst.may_read_memory() and not inst.may_write_memory()
    return False


class MemorySSA:
    """Builds the memory SSA graph for one function.

    ``optimize_uses=True`` resolves every MemoryUse's clobber eagerly
    (LLVM's behaviour for the pipeline positions that matter here).
    """

    WALK_BUDGET = 64

    def __init__(self, fn: Function, aa: AAResults, optimize_uses: bool = True):
        self.function = fn
        self.aa = aa
        self.live_on_entry = LiveOnEntry()
        self.access_of: Dict[Instruction, MemoryAccess] = {}
        self.block_entry: Dict[BasicBlock, MemoryAccess] = {}
        self.block_exit: Dict[BasicBlock, MemoryAccess] = {}
        self.phis: Dict[BasicBlock, MemoryPhi] = {}
        self._build()
        if optimize_uses:
            self._optimize_uses()

    def release(self) -> None:
        """Break the cycles loops make through the phis (a latch's
        defining chain leads back to its header's phi), so the graph
        is freed by reference counting; it is unusable afterwards."""
        for phi in self.phis.values():
            phi.incoming.clear()

    # -- construction ---------------------------------------------------------
    def _build(self) -> None:
        fn = self.function
        rpo = reverse_postorder(fn)
        preds = predecessor_map(fn)
        # place phis at all multi-predecessor blocks (unpruned form)
        for bb in rpo:
            if len(preds[bb]) >= 2:
                self.phis[bb] = MemoryPhi(bb)

        for bb in rpo:
            if bb in self.phis:
                entry: MemoryAccess = self.phis[bb]
            elif preds[bb]:
                entry = self.block_exit.get(preds[bb][0], self.live_on_entry)
            else:
                entry = self.live_on_entry
            self.block_entry[bb] = entry
            current = entry
            for inst in bb.instructions:
                if _writes(inst):
                    acc = MemoryDef(inst, current)
                    self.access_of[inst] = acc
                    current = acc
                elif _reads(inst):
                    acc = MemoryUse(inst, current)
                    self.access_of[inst] = acc
            self.block_exit[bb] = current

        # fill phi operands now that all exits exist
        for bb, phi in self.phis.items():
            for p in preds[bb]:
                phi.incoming[p] = self.block_exit.get(p, self.live_on_entry)

    def _optimize_uses(self) -> None:
        for inst, acc in self.access_of.items():
            if isinstance(acc, MemoryUse) and isinstance(inst, LoadInst):
                loc = MemoryLocation.get(inst)
                acc.optimized = self.walk(acc.defining, loc)

    # -- the walker ------------------------------------------------------------
    def walk(self, start: MemoryAccess, loc: MemoryLocation) -> MemoryAccess:
        """Nearest access (from ``start`` upwards) that may clobber ``loc``.

        Returns a MemoryDef that Mods the location, a MemoryPhi whose arms
        disagree, or liveOnEntry.
        """
        budget = self.WALK_BUDGET
        current = start
        while budget > 0:
            budget -= 1
            if isinstance(current, LiveOnEntry):
                return current
            if isinstance(current, MemoryDef):
                mr = self.aa.get_mod_ref(current.inst, loc)
                if mr & ModRefInfo.MOD:
                    return current
                current = current.defining
                continue
            if isinstance(current, MemoryPhi):
                results = set()
                for arm in current.incoming.values():
                    if arm is current:
                        continue
                    # avoid deep recursion through nested phis: walk each
                    # arm with the remaining budget
                    r = self._walk_bounded(arm, loc, budget, {current})
                    results.add(r)
                    if len(results) > 1:
                        return current
                if len(results) == 1:
                    return results.pop()
                return current
            if isinstance(current, MemoryUse):  # pragma: no cover
                current = current.defining
                continue
            return current
        return current

    def _walk_bounded(self, start: MemoryAccess, loc: MemoryLocation,
                      budget: int, visiting: Set[MemoryAccess]) -> MemoryAccess:
        current = start
        while budget > 0:
            budget -= 1
            if isinstance(current, LiveOnEntry):
                return current
            if isinstance(current, MemoryDef):
                mr = self.aa.get_mod_ref(current.inst, loc)
                if mr & ModRefInfo.MOD:
                    return current
                current = current.defining
                continue
            if isinstance(current, MemoryPhi):
                if current in visiting:
                    # cycle (loop backedge): treat the phi as the clobber
                    return current
                results = set()
                for arm in current.incoming.values():
                    r = self._walk_bounded(arm, loc, budget // 2 + 1,
                                           visiting | {current})
                    results.add(r)
                    if len(results) > 1:
                        return current
                return results.pop() if results else current
            current = getattr(current, "defining", current)
        return current

    # -- queries ------------------------------------------------------------
    def clobbering_access(self, load: LoadInst) -> MemoryAccess:
        acc = self.access_of.get(load)
        if acc is None:
            raise KeyError(f"no memory access for {load!r}")
        assert isinstance(acc, MemoryUse)
        if acc.optimized is not None:
            return acc.optimized
        loc = MemoryLocation.get(load)
        acc.optimized = self.walk(acc.defining, loc)
        return acc.optimized
