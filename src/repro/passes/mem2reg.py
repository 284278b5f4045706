"""mem2reg: promote scalar allocas to SSA registers.

Standard SSA construction: phi insertion at iterated dominance frontiers
of the stores, then renaming along the dominator tree.  Promoting the
frontend's scalar temporaries first is what leaves the remaining loads
and stores about *real* memory (arrays, struct fields, pointer
indirections) — the queries that matter for alias analysis.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import AllocaInst, Instruction, LoadInst, PhiInst, StoreInst
from ..ir.values import UndefValue, Value
from ..analysis.dominators import DominatorTree
from .analysis_manager import PreservedAnalyses
from .pass_manager import CompilationContext, Pass


def _promotable(alloca: AllocaInst) -> bool:
    if alloca.count != 1 or alloca.allocated_type.is_aggregate:
        return False
    for user in alloca.users:
        if isinstance(user, LoadInst):
            continue
        if isinstance(user, StoreInst) and user.pointer is alloca \
                and user.value is not alloca:
            continue
        return False
    return True


def dominance_frontiers(fn: Function, dt: DominatorTree
                        ) -> Dict[BasicBlock, Set[BasicBlock]]:
    df: Dict[BasicBlock, Set[BasicBlock]] = {bb: set() for bb in fn.blocks}
    preds: Dict[BasicBlock, List[BasicBlock]] = {bb: [] for bb in fn.blocks}
    for bb in fn.blocks:
        for s in bb.successors:
            preds[s].append(bb)
    for bb in fn.blocks:
        if len(preds[bb]) < 2 or not dt.is_reachable(bb):
            continue
        for p in preds[bb]:
            if not dt.is_reachable(p):
                continue
            runner = p
            while runner is not dt.idom.get(bb) and runner is not None:
                df[runner].add(bb)
                runner = dt.idom.get(runner)
    return df


class Mem2Reg(Pass):
    name = "mem2reg"
    display_name = "Promote Memory to Register"

    def run_on_function(self, fn: Function,
                        ctx: CompilationContext) -> PreservedAnalyses:
        allocas = [i for i in fn.entry.instructions
                   if isinstance(i, AllocaInst) and _promotable(i)]
        if not allocas:
            return PreservedAnalyses.all()
        dt = ctx.analyses(fn).dt
        df = dominance_frontiers(fn, dt)

        block_order = {bb: i for i, bb in enumerate(fn.blocks)}

        phi_for: Dict[PhiInst, AllocaInst] = {}
        for alloca in allocas:
            # blocks containing a store to this alloca (deterministic
            # order: users iterate in insertion order)
            def_blocks = list(dict.fromkeys(
                u.parent for u in alloca.users
                if isinstance(u, StoreInst) and u.parent is not None))
            # iterated dominance frontier
            work = list(def_blocks)
            def_block_set = set(def_blocks)
            placed: Set[BasicBlock] = set()
            while work:
                bb = work.pop()
                for y in sorted(df.get(bb, ()),
                                key=lambda blk: block_order[blk]):
                    if y in placed:
                        continue
                    placed.add(y)
                    phi = PhiInst(alloca.allocated_type,
                                  fn.unique_name(alloca.name or "m2r"))
                    phi.parent = y
                    y.instructions.insert(0, phi)
                    phi_for[phi] = alloca
                    if y not in def_block_set:
                        work.append(y)

        undef = {a: UndefValue(a.allocated_type) for a in allocas}
        incoming: Dict[AllocaInst, Value] = dict(undef)
        to_erase: List[Instruction] = []

        # rename along the dominator tree (iterative DFS with state restore)
        children: Dict[BasicBlock, List[BasicBlock]] = {}
        for bb in fn.blocks:
            if dt.is_reachable(bb):
                children.setdefault(dt.idom.get(bb), []).append(bb)

        stack: List[tuple] = [(fn.entry, dict(incoming))]
        while stack:
            bb, values = stack.pop()
            values = dict(values)
            for inst in list(bb.instructions):
                if isinstance(inst, PhiInst) and inst in phi_for:
                    values[phi_for[inst]] = inst
                elif isinstance(inst, LoadInst) and inst.pointer in values \
                        and isinstance(inst.pointer, AllocaInst):
                    inst.replace_all_uses_with(values[inst.pointer])
                    to_erase.append(inst)
                elif isinstance(inst, StoreInst) \
                        and isinstance(inst.pointer, AllocaInst) \
                        and inst.pointer in values:
                    values[inst.pointer] = inst.value
                    to_erase.append(inst)
            for succ in bb.successors:
                for phi in succ.phis():
                    a = phi_for.get(phi)
                    if a is not None and phi.incoming_for_block(bb) is None:
                        phi.add_incoming(values[a], bb)
            for child in children.get(bb, []):
                stack.append((child, values))

        for inst in to_erase:
            inst.erase_from_parent()
        for alloca in allocas:
            alloca.erase_from_parent()

        # prune dead or half-filled phis in unreachable-pred situations
        self._fixup_phis(fn, phi_for, undef)
        ctx.stats.add(self.display_name, "# allocas promoted", len(allocas))
        return PreservedAnalyses.none()

    @staticmethod
    def _fixup_phis(fn: Function, phi_for: Dict, undef: Dict) -> None:
        preds: Dict[BasicBlock, List[BasicBlock]] = {bb: [] for bb in fn.blocks}
        for bb in fn.blocks:
            for s in bb.successors:
                preds[s].append(bb)
        for bb in fn.blocks:
            for phi in bb.phis():
                a = phi_for.get(phi)
                if a is None:
                    continue
                have = set(id(b) for b in phi.incoming_blocks)
                for p in preds[bb]:
                    if id(p) not in have:
                        phi.add_incoming(undef[a], p)
