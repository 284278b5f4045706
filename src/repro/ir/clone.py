"""Whole-module copies.

The probing driver compiles one program many times, and every compile
starts with the same work: lowering and the passes that issue no alias
query.  The :class:`~repro.oraql.compiler.Compiler` does that work once
and gives each compile a copy of the result.  A copy must behave
exactly like a fresh module, so :func:`clone_module`

* copies every value a compile can reach — globals, functions,
  arguments, blocks, instructions, and the constants used as operands
  or initializers — so no value of the original ever gains a user from
  work on the copy;
* creates the copies in the originals' creation order, because
  ``Value.__hash__`` is the creation counter and whatever iterates a
  set of values, or sorts values by id, must see the same order;
* rebuilds each use-list in the original's order.

Types and metadata are immutable once lowered and are shared.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Tuple

from .function import Function
from .instructions import BranchInst, CallInst, Instruction, PhiInst
from .module import Module
from .uselist import UseList
from .values import Argument, Constant, GlobalVariable, Value, _value_ids

#: slots a copy fills itself (or, ``__weakref__``, must not fill)
_OWN_SLOTS = {"id", "users", "__weakref__"}
#: per class: the slots copied by reference before the fix-ups
_SLOTS: Dict[type, Tuple[str, ...]] = {}
_by_id = attrgetter("id")


def _slots(cls: type) -> Tuple[str, ...]:
    slots = _SLOTS.get(cls)
    if slots is None:
        names = []
        for klass in reversed(cls.__mro__):
            assert klass is object or "__slots__" in vars(klass), (
                f"{klass.__name__} has no __slots__: its instance "
                f"attributes would not be copied")
            for name in vars(klass).get("__slots__", ()):
                if name not in _OWN_SLOTS and name not in names:
                    names.append(name)
        slots = _SLOTS[cls] = tuple(names)
    return slots


def clone_module(module: Module) -> Module:
    """A copy of ``module`` that shares no value with it (see the module
    docstring for what the copy preserves)."""
    originals = list(module.globals.values())
    #: constants by id (an int key hashes in C, a Value in Python)
    constants: Dict[int, Value] = {}
    for gv in originals:
        if gv.initializer is not None:
            constants[gv.initializer.id] = gv.initializer
    for fn in module.functions.values():
        originals.append(fn)
        originals += fn.args
        for bb in fn.blocks:
            originals.append(bb)
            insts = bb.instructions
            originals += insts
            for inst in insts:
                for op in inst.operands:
                    if isinstance(op, Constant):
                        constants[op.id] = op
    originals += constants.values()
    originals.sort(key=_by_id)

    # 1. one shell per value, in creation order, with every slot
    #    copied by reference
    vmap: Dict[int, Value] = {}  # original's id -> copy
    new = object.__new__
    for v in originals:
        cls = v.__class__
        c = new(cls)
        for name in _SLOTS.get(cls) or _slots(cls):
            setattr(c, name, getattr(v, name))
        c.id = next(_value_ids)
        vmap[v.id] = c

    # 2. point every reference at the copies
    copy = new(Module)
    copy.__dict__.update(module.__dict__)
    copy.functions = {name: vmap[fn.id]
                      for name, fn in module.functions.items()}
    copy.globals = {name: vmap[gv.id] for name, gv in module.globals.items()}
    copy.struct_types = dict(module.struct_types)
    for v in originals:
        c = vmap[v.id]
        users = new(UseList)
        users._d = dict.fromkeys([vmap[u.id] for u in v.users._d])
        c.users = users
        if isinstance(v, Instruction):
            c.parent = vmap[v.parent.id]
            c.operands = [vmap[op.id] for op in v.operands]
            if isinstance(v, PhiInst):
                c.incoming_blocks = [vmap[bb.id] for bb in v.incoming_blocks]
            elif isinstance(v, BranchInst):
                c.targets = [vmap[bb.id] for bb in v.targets]
            elif isinstance(v, CallInst) and not isinstance(v.callee, str):
                c.callee = vmap[v.callee.id]
        elif isinstance(v, Function):
            c.parent = copy
            c.args = [vmap[a.id] for a in v.args]
            c.blocks = [vmap[bb.id] for bb in v.blocks]
            c.attrs = set(v.attrs)
        elif isinstance(v, Argument):
            c.function = vmap[v.function.id]
            c.attrs = set(v.attrs)
        elif isinstance(v, GlobalVariable):
            if v.initializer is not None:
                c.initializer = vmap[v.initializer.id]
        elif not isinstance(v, Constant):  # a block
            c.parent = vmap[v.parent.id]
            c.instructions = [vmap[i.id] for i in v.instructions]
    return copy
