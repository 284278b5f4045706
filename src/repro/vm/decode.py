"""Decoding: IR functions turned into flat op lists for the interpreter.

A function is decoded once per (module, cost table) and then executed
by :class:`~repro.vm.interpreter.Machine` as many times as it is
called, across every run and MPI rank that shares the
:class:`DecodedModule`.

* **Slots.**  Every SSA value gets an index into a frame's register
  list.  A frame is a copy of the function's *template*, in which
  constants, global addresses and functions are pre-filled and every
  other slot holds :data:`UNSET`.
* **Ops.**  Each block becomes a list of op tuples, one per
  instruction; each op carries its operand slots, a handler specialised
  by opcode, op/predicate and type, and its cost pre-bound from the
  cost table.  Branches carry one *edge* per target, with the target's
  phi moves resolved for that CFG edge.
* **Exactness.**  Decoding changes no observable result: a read that
  SSA dominance does not guarantee to find a value (a def that does not
  dominate the use, an entry-block phi, a missing argument) is checked
  and raises the interpreter's ``use of unevaluated value`` error at
  the same point; an opcode missing from the cost table is priced
  through :meth:`CostModel.of` when it executes.

Decoded code never refers to a Machine or its Memory: handlers take
them as arguments, so code is shared and every run's image is freed by
reference counting as soon as the run ends.

Op layouts (``cost`` is the cycles charged per execution, before the
op runs):

=========================================  ==================================
``(PLAIN, cost, h)``                       ``h(regs, mem)``, then next op
``(JUMP, cost, edge)``                     take ``edge``
``(BR, cost, cond_slot, edge_t, edge_f)``  take ``edge_t`` if cond else
                                           ``edge_f``
``(SLOW, cost, h, dest)``                  ``h(machine, frame)`` with the
                                           machine state synced; ``dest``
                                           receives a blocked call's result
``(PRICED, 0.0, key, op)``                 charge ``CostModel.of(key)``,
                                           then run ``op``
=========================================  ==================================

An edge is ``(target ops, start index, moves)``; ``moves(regs)`` (or
None) assigns the target's phis in parallel.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    InsertElementInst,
    Instruction,
    LoadInst,
    MemCpyInst,
    MemSetInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    ShuffleSplatInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.module import Module
from ..ir.types import ArrayType, IntType, StructType, Type, VectorType
from ..ir.values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)
from .errors import UndefinedBehavior, VMError
from .memory import _BASE, place, typed_loader, typed_storer

PLAIN, JUMP, BR, SLOW, PRICED = range(5)


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<unset>"


#: the value of a slot no instruction has written yet
UNSET = _Unset()

#: slot 0 receives the results of void instructions and is never read;
#: slot 1 is never written: operands that always fail read from it
SINK, HOLE = 0, 1

Fail = Optional[Callable[[], BaseException]]


# -- scalar semantics ---------------------------------------------------------

def _wrap_int(v: int, bits: int) -> int:
    mask = (1 << bits) - 1
    v &= mask
    if bits > 1 and v >= (1 << (bits - 1)):
        v -= 1 << bits
    return v


def _unsigned(v: int, bits: int) -> int:
    return v & ((1 << bits) - 1)


def _fdiv(a, b):
    if b == 0.0:
        return math.inf if a > 0 else (-math.inf if a < 0 else math.nan)
    return a / b


def _frem(a, b):
    return math.fmod(a, b) if b != 0.0 else math.nan


def binop_fn(op: str, ty: Type) -> Callable:
    """``(a, b) -> result`` of binary ``op`` on scalars of type ``ty``.

    Integer results wrap to ``ty``'s width in signed canonical form
    (``i1`` stays 0/1); division by zero is undefined behaviour."""
    if op == "fadd":
        return operator.add
    if op == "fsub":
        return operator.sub
    if op == "fmul":
        return operator.mul
    if op == "fdiv":
        return _fdiv
    if op == "frem":
        return _frem
    bits = ty.bits if isinstance(ty, IntType) else 64
    mask = (1 << bits) - 1
    # ((v + half) & mask) - half == _wrap_int(v, bits), half 0 for i1
    half = 1 << (bits - 1) if bits > 1 else 0
    if op == "add":
        return lambda a, b: ((a + b + half) & mask) - half
    if op == "sub":
        return lambda a, b: ((a - b + half) & mask) - half
    if op == "mul":
        return lambda a, b: ((a * b + half) & mask) - half
    if op == "and":
        return lambda a, b: (((a & b) + half) & mask) - half
    if op == "or":
        return lambda a, b: (((a | b) + half) & mask) - half
    if op == "xor":
        return lambda a, b: (((a ^ b) + half) & mask) - half
    if op == "shl":
        return lambda a, b: (((a << (b % bits)) + half) & mask) - half
    if op == "ashr":
        return lambda a, b: (((a >> (b % bits)) + half) & mask) - half
    if op == "lshr":
        return lambda a, b: ((((a & mask) >> (b % bits)) + half) & mask) \
            - half

    if op == "sdiv":
        def sdiv(a, b):
            if b == 0:
                raise UndefinedBehavior("sdiv by zero")
            q = abs(a) // abs(b)
            return _wrap_int(-q if (a < 0) != (b < 0) else q, bits)
        return sdiv
    if op == "srem":
        def srem(a, b):
            if b == 0:
                raise UndefinedBehavior("srem by zero")
            q = abs(a) // abs(b)
            q = -q if (a < 0) != (b < 0) else q
            return _wrap_int(a - q * b, bits)
        return srem
    if op == "udiv":
        def udiv(a, b):
            if b == 0:
                raise UndefinedBehavior("udiv by zero")
            return _wrap_int(_unsigned(a, bits) // _unsigned(b, bits), bits)
        return udiv
    if op == "urem":
        def urem(a, b):
            if b == 0:
                raise UndefinedBehavior("urem by zero")
            return _wrap_int(_unsigned(a, bits) % _unsigned(b, bits), bits)
        return urem

    def bad(a, b):
        raise VMError(f"bad binop {op}")
    return bad


_ICMP = {"eq": operator.eq, "ne": operator.ne,
         "slt": operator.lt, "ult": operator.lt,
         "sle": operator.le, "ule": operator.le,
         "sgt": operator.gt, "ugt": operator.gt,
         "sge": operator.ge, "uge": operator.ge}

_FCMP = {"oeq": operator.eq, "one": operator.ne, "olt": operator.lt,
         "ole": operator.le, "ogt": operator.gt, "oge": operator.ge}


def icmp_fn(pred: str, bits: int) -> Callable:
    """``(a, b) -> 0/1`` for integer predicate ``pred`` on ``bits``-wide
    operands (``u*`` predicates compare the unsigned values)."""
    cmp = _ICMP.get(pred)
    if cmp is None:
        def bad(a, b):
            raise VMError(f"bad icmp pred {pred}")
        return bad
    if pred[0] == "u":
        mask = (1 << bits) - 1
        return lambda a, b: int(cmp(a & mask, b & mask))
    return lambda a, b: int(cmp(a, b))


def fcmp_fn(pred: str) -> Callable:
    """``(a, b) -> 0/1`` for ordered float predicate ``pred``; every
    ordered comparison is false on NaN."""
    cmp = _FCMP.get(pred)
    isnan = math.isnan

    def fcmp(a, b):
        if isnan(a) or isnan(b):
            return 0
        if cmp is None:
            raise KeyError(pred)
        return 1 if cmp(a, b) else 0
    return fcmp


def _fptrunc(v):
    return struct.unpack("<f", struct.pack("<f", v))[0]


def cast_fn(op: str, to: Type, from_ty: Type) -> Callable:
    """``v -> result`` of scalar cast ``op`` from ``from_ty`` to ``to``."""
    if op in ("bitcast", "inttoptr", "ptrtoint", "sext"):
        return lambda v: v  # sext: values are already sign-canonical
    if op == "trunc":
        return lambda v: _wrap_int(v, to.bits)
    if op == "zext":
        return lambda v: _unsigned(v, from_ty.bits)
    if op == "fptosi":
        def fptosi(v):
            if math.isnan(v) or math.isinf(v):
                raise UndefinedBehavior("fptosi of NaN/Inf")
            return _wrap_int(int(v), to.bits)
        return fptosi
    if op in ("sitofp", "fpext"):
        return float
    if op == "fptrunc":
        return _fptrunc

    def bad(v):
        raise VMError(f"bad cast {op}")
    return bad


# -- decoded code ---------------------------------------------------------------

class DecodedModule:
    """A module's functions decoded against one cost table.

    Functions are decoded lazily, on their first call; one instance is
    shared by every Machine that runs the module with that table.
    ``globals`` holds the address each global gets in a fresh image
    (the Machine allocates them in the same order)."""

    def __init__(self, module: Module, costs: Dict[str, float]):
        self.module = module
        self.costs = dict(costs)
        self.globals: Dict[GlobalVariable, int] = {}
        brk = _BASE
        for gv in module.globals.values():
            ty = gv.value_type
            self.globals[gv], brk = place(brk, ty.size(), ty.align())
        self._functions: Dict[Tuple[Function, int], DecodedFunction] = {}

    def function(self, fn: Function, nargs: int) -> "DecodedFunction":
        """``fn`` as entered with ``nargs`` arguments (frames that get
        fewer arguments than parameters read the rest as unevaluated)."""
        key = (fn, nargs)
        code = self._functions.get(key)
        if code is None:
            code = self._functions[key] = DecodedFunction(self, fn, nargs)
        return code


class DecodedFunction:
    """One function's template and op lists; ``entry`` is None until
    the first frame enters it."""

    __slots__ = ("owner", "fn", "nargs", "template", "arg_slots", "entry")

    def __init__(self, owner: DecodedModule, fn: Function, nargs: int):
        self.owner = owner
        self.fn = fn
        self.nargs = nargs
        self.template: List[object] = []
        self.arg_slots: Tuple[int, ...] = ()
        self.entry: Optional[list] = None

    def decode(self) -> None:
        _Decoder(self).run()


def _nop(regs, mem):
    pass


def _raiser(exc: Callable[[], BaseException]):
    def fail(regs, mem):
        raise exc()
    return fail


def _checked_plain(h, checks):
    def op(regs, mem):
        for slot, fail in checks:
            if regs[slot] is UNSET:
                raise fail()
        h(regs, mem)
    return op


def _checked_slow(h, checks):
    def op(m, frame):
        regs = frame.regs
        for slot, fail in checks:
            if regs[slot] is UNSET:
                raise fail()
        h(m, frame)
    return op


class _Decoder:
    """Builds one :class:`DecodedFunction`: slots, template, op lists."""

    def __init__(self, code: DecodedFunction):
        fn = code.fn
        self.code = code
        self.fn = fn
        self.owner = code.owner
        self.entry_block = fn.entry
        self.template: List[object] = [None, UNSET]  # SINK, HOLE
        self.slots: Dict[Value, int] = {}
        self.args = {a: i for i, a in enumerate(fn.args)}
        self.position: Dict[Instruction, Tuple[BasicBlock, int]] = {}
        self.nphis: Dict[BasicBlock, int] = {}
        for bb in fn.blocks:
            self.nphis[bb] = len(bb.phis())
            for i, inst in enumerate(bb.instructions):
                self.position[inst] = (bb, i)
        self.dt = DominatorTree(fn)
        self.ops: Dict[BasicBlock, list] = {}
        self._pending: List[BasicBlock] = []

    # -- slots -------------------------------------------------------------
    def slot(self, v: Value) -> int:
        s = self.slots.get(v)
        if s is None:
            s = self.slots[v] = len(self.template)
            self.template.append(UNSET)
        return s

    def _constant(self, v: Value, value) -> int:
        s = self.slots.get(v)
        if s is None:
            s = self.slots[v] = len(self.template)
            self.template.append(value)
        return s

    def dest(self, inst: Instruction) -> int:
        return SINK if inst.type.is_void else self.slot(inst)

    def read(self, v: Value, block: BasicBlock, pos: int) -> Tuple[int, Fail]:
        """The slot an operand is read from at instruction ``pos`` of
        ``block`` (``len(block)`` for a phi move on leaving it), and the
        error to raise if the slot is still :data:`UNSET` there — None
        when SSA dominance guarantees it is written."""
        if isinstance(v, Constant):
            if isinstance(v, (ConstantInt, ConstantFloat)):
                return self._constant(v, v.value), None
            if isinstance(v, (ConstantNull, UndefValue)):
                return self._constant(v, 0), None
            return HOLE, lambda: VMError(f"cannot evaluate constant {v!r}")
        if isinstance(v, GlobalVariable):
            addr = self.owner.globals.get(v)
            if addr is None:
                return HOLE, lambda: KeyError(v)
            return self._constant(v, addr), None
        if isinstance(v, Function):
            return self._constant(v, v), None
        slot = self.slot(v)
        if self._defined(v, block, pos):
            return slot, None
        fn = self.fn
        return slot, lambda: VMError(
            f"use of unevaluated value {v.short()} in @{fn.name}")

    def _defined(self, v: Value, block: BasicBlock, pos: int) -> bool:
        """Is ``v`` written in every frame that reaches ``pos`` of
        ``block``?"""
        dt = self.dt
        if not dt.is_reachable(block):
            return False  # never runs; stay exact anyway
        index = self.args.get(v)
        if index is not None:
            return index < self.code.nargs
        where = self.position.get(v)
        if where is None or v.type.is_void:
            return False
        dblock, dpos = where
        if isinstance(v, PhiInst):
            # written on every jump into its block; never on the fall
            # into the entry block, and never when not at the block head
            return (dpos < self.nphis[dblock]
                    and dblock is not self.entry_block
                    and dt.dominates_block(dblock, block))
        if dblock is block:
            return dpos < pos
        return dt.dominates_block(dblock, block)

    # -- blocks --------------------------------------------------------------
    def block_ops(self, bb: BasicBlock) -> list:
        ops = self.ops.get(bb)
        if ops is None:
            ops = self.ops[bb] = []
            self._pending.append(bb)
        return ops

    def run(self) -> None:
        code = self.code
        entry = self.block_ops(self.entry_block)
        for bb in self.fn.blocks:
            self.block_ops(bb)
        pending = self._pending
        done = 0
        while done < len(pending):  # edges may add blocks
            bb = pending[done]
            done += 1
            ops = self.ops[bb]
            for pos, inst in enumerate(bb.instructions):
                ops.append(self.bind_cost(inst, self.decode(inst, bb, pos)))
        code.arg_slots = tuple(self.slot(a)
                               for a in self.fn.args[:code.nargs])
        code.template = self.template
        code.entry = entry

    def bind_cost(self, inst: Instruction, op: tuple) -> tuple:
        key = inst.op if isinstance(inst, BinaryInst) else inst.opcode
        cost = self.owner.costs.get(key)
        if cost is None:
            return (PRICED, 0.0, key, (op[0], 0.0) + op[2:])
        return (op[0], cost) + op[2:]

    # -- edges ---------------------------------------------------------------
    def edge(self, source: BasicBlock, target: BasicBlock) -> tuple:
        ops = self.block_ops(target)
        phis = target.phis()
        end = len(source.instructions)
        reads: List[Tuple[int, Fail]] = []
        dests: List[int] = []
        for phi in phis:
            v = phi.incoming_for_block(source)
            if v is None:
                reads.append((HOLE, lambda phi=phi: VMError(
                    f"phi {phi.short()} has no incoming for {source.name}")))
            else:
                reads.append(self.read(v, source, end))
            dests.append(self.slot(phi))
        return (ops, len(phis), self._moves(reads, dests))

    @staticmethod
    def _moves(reads, dests):
        if not dests:
            return None
        srcs = [s for s, _ in reads]
        if all(f is None for _, f in reads) and not set(srcs) & set(dests):
            # no phi reads another phi of the block: assign in order
            if len(dests) == 1:
                (d,), (s,) = dests, srcs

                def move(regs):
                    regs[d] = regs[s]
                return move
            pairs = tuple(zip(dests, srcs))

            def moves(regs):
                for d, s in pairs:
                    regs[d] = regs[s]
            return moves

        def parallel(regs):
            vals = []
            for s, fail in reads:
                v = regs[s]
                if v is UNSET and fail is not None:
                    raise fail()
                vals.append(v)
            for d, v in zip(dests, vals):
                regs[d] = v
        return parallel

    # -- instructions ----------------------------------------------------------
    def decode(self, inst: Instruction, bb: BasicBlock, pos: int) -> tuple:
        """The op for ``inst`` (cost not yet bound)."""
        reads: List[Tuple[int, Fail]] = []

        def rd(v: Value) -> int:
            s, fail = self.read(v, bb, pos)
            if fail is not None:
                reads.append((s, fail))
            return s

        cls = inst.__class__
        if cls is BranchInst:
            if not inst.is_conditional:
                return (JUMP, None, self.edge(bb, inst.targets[0]))
            c = rd(inst.condition)
            taken = self.edge(bb, inst.targets[0])
            other = self.edge(bb, inst.targets[1])
            if not reads:
                return (BR, None, c, taken, other)
            return (SLOW, None, _checked_slow(_branch(c, taken, other),
                                              reads), SINK)
        if cls in _SLOW_DECODERS:
            h, dest = _SLOW_DECODERS[cls](self, inst, rd)
            if reads:
                h = _checked_slow(h, reads)
            return (SLOW, None, h, dest)
        if cls is SelectInst:
            return (PLAIN, None, self._select(inst, bb, pos))
        decoder = _PLAIN_DECODERS.get(cls)
        if decoder is None:
            if cls is PhiInst:
                h = _nop  # block-head phis are assigned by edges
            elif cls is UnreachableInst:
                h = _raiser(lambda: UndefinedBehavior("executed unreachable"))
            else:
                h = _raiser(lambda: VMError(
                    f"cannot interpret {inst.opcode}"))
        else:
            h = decoder(inst, rd, self.dest(inst))
        if reads:
            h = _checked_plain(h, reads)
        return (PLAIN, None, h)

    def _select(self, inst: SelectInst, bb: BasicBlock, pos: int):
        (c, cf), (t, tf), (f, ff) = (self.read(v, bb, pos)
                                     for v in inst.operands)
        d = self.dest(inst)
        if cf is None and tf is None and ff is None:
            def select(regs, mem):
                regs[d] = regs[t] if regs[c] else regs[f]
            return select

        def checked_select(regs, mem):  # only the chosen value is read
            if cf is not None and regs[c] is UNSET:
                raise cf()
            s, fail = (t, tf) if regs[c] else (f, ff)
            if fail is not None and regs[s] is UNSET:
                raise fail()
            regs[d] = regs[s]
        return checked_select


# -- plain ops ------------------------------------------------------------------
#
# Each decoder reads its operands through ``rd`` in the interpreter's
# evaluation order and returns ``h(regs, mem)``.

def _decode_binop(inst, rd, d):
    a, b = rd(inst.operands[0]), rd(inst.operands[1])
    ty = inst.type
    if isinstance(ty, VectorType):
        f = binop_fn(inst.op, ty.element)

        def vbinop(regs, mem):
            regs[d] = tuple(map(f, regs[a], regs[b]))
        return vbinop
    f = binop_fn(inst.op, ty)

    def binop(regs, mem):
        regs[d] = f(regs[a], regs[b])
    return binop


def _decode_cmp(inst, rd, d):
    a, b = rd(inst.operands[0]), rd(inst.operands[1])
    ty = inst.operands[0].type
    vector = isinstance(ty, VectorType)
    if inst.__class__ is FCmpInst:
        f = fcmp_fn(inst.pred)
    else:
        bits = ty.element.bits if vector else getattr(ty, "bits", 64)
        f = icmp_fn(inst.pred, bits)
    if vector:
        def vcmp(regs, mem):
            regs[d] = tuple(map(f, regs[a], regs[b]))
        return vcmp

    def cmp(regs, mem):
        regs[d] = f(regs[a], regs[b])
    return cmp


def _decode_load(inst, rd, d):
    p = rd(inst.pointer)
    load = typed_loader(inst.type)

    def op(regs, mem):
        regs[d] = load(mem, regs[p])
    return op


def _decode_store(inst, rd, d):
    p = rd(inst.pointer)
    v = rd(inst.value)
    store = typed_storer(inst.value.type)

    def op(regs, mem):
        store(mem, regs[p], regs[v])
    return op


def _decode_gep(inst, rd, d):
    p = rd(inst.pointer)
    indices = inst.indices
    if not indices:
        def same(regs, mem):
            regs[d] = regs[p]
        return same
    # fold constant indices and struct fields into one byte offset;
    # each variable index contributes slot value * scale
    ty: Type = inst.pointer.type.pointee
    const = 0
    terms: List[Tuple[int, int]] = []
    for i, idx in enumerate(indices):
        if i == 0:
            scale = ty.size()
        elif isinstance(ty, (ArrayType, VectorType)):
            ty = ty.element
            scale = ty.size()
        elif isinstance(ty, StructType) and isinstance(idx, ConstantInt):
            const += ty.field_offset(idx.value)
            ty = ty.fields[idx.value]
            continue
        else:
            return _generic_gep(inst, rd, d, p)
        if isinstance(idx, ConstantInt):
            const += idx.value * scale
        else:
            terms.append((rd(idx), scale))
    if not terms:
        def gep0(regs, mem):
            regs[d] = regs[p] + const
        return gep0
    if len(terms) == 1:
        ((x, s),) = terms

        def gep1(regs, mem):
            regs[d] = regs[p] + regs[x] * s + const
        return gep1
    terms = tuple(terms)

    def gep(regs, mem):
        addr = regs[p] + const
        for x, s in terms:
            addr += regs[x] * s
        regs[d] = addr
    return gep


def _generic_gep(inst, rd, d, p):
    """A GEP whose structure is only known at run time (a struct index
    that is not a constant): walk the types as each index is read."""
    idx = tuple(rd(v) for v in inst.indices)
    pointee = inst.pointer.type.pointee

    def gep(regs, mem):
        addr = regs[p]
        ty = pointee
        for i, x in enumerate(idx):
            iv = regs[x]
            if i == 0:
                addr += iv * ty.size()
            elif isinstance(ty, (ArrayType, VectorType)):
                ty = ty.element
                addr += iv * ty.size()
            elif isinstance(ty, StructType):
                addr += ty.field_offset(iv)
                ty = ty.fields[iv]
            else:
                raise VMError(f"gep into {ty}")
        regs[d] = addr
    return gep


def _decode_cast(inst, rd, d):
    s = rd(inst.value)
    to, from_ty = inst.type, inst.value.type
    f = cast_fn(inst.op, to, from_ty)
    if not isinstance(to, VectorType):
        def cast(regs, mem):
            regs[d] = f(regs[s])
        return cast

    def vcast(regs, mem):  # lane-wise when the value is a vector
        v = regs[s]
        if isinstance(v, tuple):
            lane = cast_fn(inst.op, to.element, from_ty.element)
            regs[d] = tuple(map(lane, v))
        else:
            regs[d] = f(v)
    return vcast


def _decode_splat(inst, rd, d):
    s = rd(inst.operands[0])
    lanes = inst.lanes

    def splat(regs, mem):
        regs[d] = (regs[s],) * lanes
    return splat


def _decode_extract(inst, rd, d):
    v, i = rd(inst.operands[0]), rd(inst.operands[1])

    def extract(regs, mem):
        regs[d] = regs[v][regs[i]]
    return extract


def _decode_insert(inst, rd, d):
    v, e, i = (rd(x) for x in inst.operands[:3])

    def insert(regs, mem):
        lanes = list(regs[v])
        lanes[regs[i]] = regs[e]
        regs[d] = tuple(lanes)
    return insert


_PLAIN_DECODERS = {
    BinaryInst: _decode_binop,
    ICmpInst: _decode_cmp,
    FCmpInst: _decode_cmp,
    LoadInst: _decode_load,
    StoreInst: _decode_store,
    GEPInst: _decode_gep,
    CastInst: _decode_cast,
    ShuffleSplatInst: _decode_splat,
    ExtractElementInst: _decode_extract,
    InsertElementInst: _decode_insert,
}


# -- slow ops -------------------------------------------------------------------
#
# Ops that touch the frame stack, the runtime or the cycle counter run
# as ``h(machine, frame)`` with the machine's counters synced; each
# advances ``frame.index`` itself (or pushes / pops a frame).  A decoder
# returns ``(h, dest)``.

def _branch(c, taken, other):
    def branch(m, frame):
        ops, start, moves = taken if frame.regs[c] else other
        if moves is not None:
            moves(frame.regs)
        frame.ops = ops
        frame.index = start
    return branch


def _decode_ret(dec, inst, rd):
    if inst.value is None:
        def ret_void(m, frame):
            m._leave(None)
        return ret_void, SINK
    s = rd(inst.value)

    def ret(m, frame):
        m._leave(frame.regs[s])
    return ret, SINK


def _decode_call(dec, inst, rd):
    args = tuple(rd(a) for a in inst.operands)
    d = dec.dest(inst)
    callee = inst.callee
    if isinstance(callee, Function) and not callee.is_declaration:
        code = dec.owner.function(callee, min(len(args), len(callee.args)))

        def call(m, frame):
            regs = frame.regs
            m._enter(code, tuple([regs[s] for s in args]), d)
        return call, d
    name = callee if isinstance(callee, str) else callee.name

    def call_runtime(m, frame):
        regs = frame.regs
        m._call_runtime(frame, name, tuple([regs[s] for s in args]), inst, d)
    return call_runtime, d


def _decode_alloca(dec, inst, rd):
    size, align = inst.size_bytes(), inst.allocated_type.align()
    d = dec.dest(inst)

    def alloca(m, frame):
        addr = m.memory.allocate(size, align)
        frame.allocas.append(addr)
        frame.regs[d] = addr
        frame.index += 1
    return alloca, d


def _decode_memcpy(dec, inst, rd):
    dst, src, size = rd(inst.dst), rd(inst.src), rd(inst.size)

    def memcpy(m, frame):
        regs = frame.regs
        n = regs[size]
        m.cycles += m._gpu_factor * n / 8.0
        m.memory.copy(regs[dst], regs[src], n)
        frame.index += 1
    return memcpy, SINK


def _decode_memset(dec, inst, rd):
    dst, byte, size = rd(inst.dst), rd(inst.byte), rd(inst.size)

    def memset(m, frame):
        regs = frame.regs
        n = regs[size]
        m.cycles += m._gpu_factor * n / 8.0
        m.memory.fill(regs[dst], regs[byte], n)
        frame.index += 1
    return memset, SINK


_SLOW_DECODERS = {
    ReturnInst: _decode_ret,
    CallInst: _decode_call,
    AllocaInst: _decode_alloca,
    MemCpyInst: _decode_memcpy,
    MemSetInst: _decode_memset,
}
