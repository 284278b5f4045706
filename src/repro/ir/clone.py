"""Whole-module copies, and copies (or moves) of one function's body.

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

from . import instructions
from .function import Function
from .instructions import BranchInst, CallInst, Instruction, PhiInst
from .module import Module
from .uselist import UseList
from .values import Argument, Constant, GlobalVariable, Value, _value_ids

#: slots a copy fills itself (or, ``__weakref__``, must not fill)
_OWN_SLOTS = {"id", "users", "__weakref__"}
#: slots a copy starts empty: the pointer facts an instruction keeps
#: point at the original's values
_EMPTY_SLOTS = ("_decomp", "_underlying")
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
                if name not in _OWN_SLOTS and name not in names \
                        and name not in _EMPTY_SLOTS:
                    names.append(name)
        slots = _SLOTS[cls] = tuple(names)
    return slots


def _add_body(fn: Function, originals: list,
              constants: Dict[int, Value]) -> None:
    """Collect ``fn``'s blocks and instructions into ``originals`` and
    their constant operands into ``constants`` (by id: an int key
    hashes in C, a Value in Python)."""
    for bb in fn.blocks:
        originals.append(bb)
        insts = bb.instructions
        originals += insts
        for inst in insts:
            for op in inst.operands:
                if isinstance(op, Constant):
                    constants[op.id] = op


def _shells(originals: list) -> Dict[int, Value]:
    """One shell per value, in creation order, with every slot copied
    by reference: original's id -> copy."""
    originals.sort(key=_by_id)
    vmap: Dict[int, Value] = {}
    new = object.__new__
    for v in originals:
        cls = v.__class__
        c = new(cls)
        for name in _SLOTS.get(cls) or _slots(cls):
            setattr(c, name, getattr(v, name))
        if isinstance(v, Instruction):
            c._decomp = c._underlying = None
        c.id = next(_value_ids)
        vmap[v.id] = c
    return vmap


def clone_module(module: Module, bodies: bool = True) -> Module:
    """A copy of ``module`` that shares no value with it (see the module
    docstring for what the copy preserves).  With ``bodies=False`` the
    functions of the copy have their arguments but no blocks, and no
    value has users yet: :func:`clone_body` gives each function its
    body when it is needed."""
    originals = list(module.globals.values())
    constants: Dict[int, Value] = {}
    for gv in originals:
        if gv.initializer is not None:
            constants[gv.initializer.id] = gv.initializer
    for fn in module.functions.values():
        originals.append(fn)
        originals += fn.args
        if bodies:
            _add_body(fn, originals, constants)
    originals += constants.values()
    vmap = _shells(originals)

    # point every reference at the copies
    new = object.__new__
    copy = new(Module)
    copy.__dict__.update(module.__dict__)
    copy.functions = {name: vmap[fn.id]
                      for name, fn in module.functions.items()}
    copy.globals = {name: vmap[gv.id] for name, gv in module.globals.items()}
    copy.struct_types = dict(module.struct_types)
    for v in originals:
        c = vmap[v.id]
        users = new(UseList)
        users._d = (dict.fromkeys([vmap[u.id] for u in v.users._d])
                    if bodies else {})
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
            c.blocks = [vmap[bb.id] for bb in v.blocks] if bodies else []
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


def clone_body(src: Function, dst: Function) -> Dict[int, Value]:
    """Replace ``dst``'s body by a copy of ``src``'s: arguments, blocks,
    instructions and their constant operands, created in the originals'
    creation order, with each local use-list in the original's order.
    ``src`` may belong to another (even a released) module: the globals
    and functions it references are resolved by name in ``dst``'s
    module, and gain the copy's instructions as users.  ``dst``'s old
    body drops its references.  Returns the map from each of ``src``'s
    values (by id) to its counterpart in ``dst``."""
    module = dst.parent
    originals: list = list(src.args)
    constants: Dict[int, Value] = {}
    _add_body(src, originals, constants)
    originals += constants.values()
    vmap = _shells(originals)
    new = object.__new__

    #: ids of dst's module-level values the copy uses
    outer = set()

    def resolve(v: Value) -> Value:
        c = vmap.get(v.id)
        if c is None:  # a global or a function of src's module
            c = vmap[v.id] = (module.globals[v.name]
                              if isinstance(v, GlobalVariable)
                              else module.functions[v.name])
            outer.add(c.id)
        return c

    for v in originals:
        c = vmap[v.id]
        users = new(UseList)
        users._d = dict.fromkeys([vmap[u.id] for u in v.users._d])
        c.users = users
        if isinstance(v, Instruction):
            c.parent = vmap[v.parent.id]
            c.operands = ops = [resolve(op) for op in v.operands]
            for op in ops:
                if op.id in outer:
                    op.users.add(c)
            if isinstance(v, PhiInst):
                c.incoming_blocks = [vmap[bb.id] for bb in v.incoming_blocks]
            elif isinstance(v, BranchInst):
                c.targets = [vmap[bb.id] for bb in v.targets]
            elif isinstance(v, CallInst) and not isinstance(v.callee, str):
                c.callee = resolve(v.callee)
        elif isinstance(v, Argument):
            c.function = dst
            c.attrs = set(v.attrs)
        elif not isinstance(v, Constant):  # a block
            c.parent = dst
            c.instructions = [vmap[i.id] for i in v.instructions]

    for bb in dst.blocks:
        bb.drop_all_references()
    dst.args = [vmap[a.id] for a in src.args]
    dst.blocks = [vmap[bb.id] for bb in src.blocks]
    dst.attrs = set(src.attrs)
    dst._next_names = src._next_names
    return vmap


def move_body(src: Function, dst: Function) -> None:
    """Give ``dst`` the body of ``src`` itself, which is left without
    one: the cheap :func:`clone_body` for a ``src`` whose module was
    released.  The globals and functions the body references are
    resolved by name in ``dst``'s module, as :func:`clone_body` does;
    every value keeps its id.  The pointer facts the body kept are
    dropped: they may name the old module's globals."""
    module = dst.parent
    for bb in dst.blocks:
        bb.drop_all_references()
    instructions.epoch += 1
    outer: Dict[int, Value] = {}
    for bb in src.blocks:
        bb.parent = dst
        for inst in bb.instructions:
            inst._decomp = inst._underlying = None
            ops = inst.operands
            for i, op in enumerate(ops):
                if isinstance(op, (GlobalVariable, Function)):
                    new = outer.get(op.id)
                    if new is None:
                        new = outer[op.id] = (
                            module.globals[op.name]
                            if isinstance(op, GlobalVariable)
                            else module.functions[op.name])
                    op.users.discard(inst)
                    new.users.add(inst)
                    ops[i] = new
            if isinstance(inst, CallInst) and not isinstance(inst.callee,
                                                             str):
                inst.callee = module.functions[inst.callee.name]
    for arg in src.args:
        arg.function = dst
    dst.args, dst.blocks = src.args, src.blocks
    src.args, src.blocks = [], []
    dst.attrs = set(src.attrs)
    dst._next_names = src._next_names
