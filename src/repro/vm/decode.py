"""Decoding: IR functions turned into flat op lists for the interpreter.

A function body is decoded once per session and cost tables into a
:class:`Code`, which every program of the session with the same
function (name, printed body hash, argument count) runs; each program
binds its own template from it, and then executes it on
:class:`~repro.vm.interpreter.Machine` as many times as it is called,
across every run and MPI rank that shares its :class:`DecodedModule`.

* **Slots.**  Every SSA value gets an index into a frame's register
  list.  A frame is a copy of the program's *template* for the
  function, in which constants, global addresses, functions and callee
  code are pre-filled and every other slot holds :data:`UNSET`.
* **Shared code.**  A :class:`Code` holds no program's IR: the slots
  the printed body does not fix (global addresses, function values,
  callee code) are *links*, filled per program by name
  (:meth:`Code.bind`); a call op reads its callee's code from one, and
  error texts are formatted at decode time.  Code whose error texts
  name IR values, or whose names resolve elsewhere, is decoded for its
  program alone.
* **Ops.**  Each block becomes a list of ops, one index per
  instruction.  A call to a defined function, a return and an alloca
  are CALL, RET and ALLOCA ops, which the interpreter's loop runs
  itself.  An instruction that touches the runtime or the cycle counter
  otherwise is a SLOW op: a handler specialised by opcode and type.
  Every other instruction is a statement written from one source
  template per op kind, with its operand slots and its cost (bound from
  the cost table) as literals; a call to a pure intrinsic the intrinsic
  table prices (``sqrt``, ``fabs``, ...) is one too, charging the
  call's cost and then the intrinsic's, unscaled.  Branches carry one
  *edge* per target, with the target's phi moves resolved for that CFG
  edge.
* **Runs.**  Each straight-line stretch of statements that can be
  entered (a block's first non-phi op, or the op after any other op),
  up to and including the block's BR or JUMP, is one generated
  function, compiled once per distinct source (:func:`generate`), on
  the code's first interpreter entry (:meth:`Code.make_runs`).  It
  charges the whole run's cost once, first, runs its ops and returns
  the edge it takes.  A run ending in a JUMP carries on into the run
  its target enters, when that one reaches its block's BR or JUMP (one
  level) and is not a loop header.  Memory ops read the image's buffer
  and break once per run: only ALLOCA and SLOW ops allocate.  A vector
  inside the break moves with one ``struct`` call, otherwise lane by
  lane.
* **Loops.**  An innermost natural loop whose blocks hold nothing but
  statements is one more generated function (:func:`generate_loop`), a
  Python ``while`` over its blocks' statements, at its header's run
  index.  Each block charges its cost once, on entry.  Every slot the
  loop names lives in a Python local while it runs: loaded on entry,
  and each slot it writes stored back before each return (a trap
  stores nothing: no frame's registers are read after one).  A loop
  that hands ``regs`` itself to a helper (the generic GEP) is not
  promoted.  It runs iterations while no budget check can fall inside
  the next one, and returns at the header edge otherwise, where the
  header's run takes over.
* **Call trees.**  Code with no SLOW or PRICED op, that hands ``regs``
  to no helper, is also one generated function for the whole body
  (:class:`_TreeWriter`), built from the same statements: every slot a
  local for the whole call, constants bound as defaults, allocas and
  returns inline, a ``while`` over its blocks (one more per innermost
  loop).  In a program whose callees of it all have trees (no cycle of
  calls), its tree is bound to the program's template and calls theirs
  directly (:meth:`DecodedFunction.plant`): the host recurses only
  along such acyclic, runtime-free call trees.  Before each block (an
  innermost loop: before each iteration) it checks that no budget check
  can fall inside; otherwise it raises :class:`Deopt` with the frames
  it stopped in, each at its block's first op or its own CALL op, and
  the interpreter goes on from them.  A code that only runs as a tree
  never generates its runs.
* **Exactness.**  Decoding changes no observable result: a read that
  SSA dominance does not guarantee to find a value (a def that does not
  dominate the use, an entry-block phi, a missing argument) is checked
  and raises the interpreter's ``use of unevaluated value`` error at
  the same point; an opcode missing from the cost table is priced
  through :meth:`CostModel.of` when it executes, and an intrinsic
  missing from the intrinsic table stays a runtime call.  A call, return
  or alloca that must check its operands, or that the table does not
  price, runs as a SLOW handler (:func:`_handler`).  A trap inside a
  run, loop or tree is traced to its op (:func:`trap_point`), and a run
  that a budget check cuts goes op by op (:func:`steps`), so
  instruction counts, cycles and trap texts are those of one op at a
  time.  A block's single charge is the float the op-by-op charges
  reach only when every charge and partial sum is an integer below
  2**53: the interpreter runs the folded functions only then
  (:func:`exact_charges`), and otherwise their twins that charge op by
  op (:func:`charged`), generated on first use.  A trap inside a folded
  block reports its cycles less what the op-by-op path had not charged
  yet there (each function's ``post``).

Decoded code never refers to a Machine or its Memory: handlers take
them as arguments, so code is shared and every run's image is freed by
reference counting as soon as the run ends.

Op layouts (``cost`` is the cycles charged per execution, before the
op runs):

=============================================  ==============================
``(FUSED, length, run, statements, steps,      ``run(regs, mem, gpu,
charged)``                                     cycles) -> (cycles, edge or
                                               None)``: ``length`` ops,
                                               then the edge, or the next
                                               op if None; a threaded
                                               JUMP is a PLAIN statement
                                               (its phi moves) followed
                                               by its target's run;
                                               ``run`` folds its charges,
                                               ``charged`` holds its
                                               op-by-op twin once made
``(LOOP, worst, loop, header run, blocks,      ``loop(regs, mem, gpu,
charged)``                                     cycles, n, limit) ->
                                               (cycles, n, edge)``: whole
                                               iterations of at most
                                               ``worst`` ops while ``n <
                                               limit``; the FUSED header
                                               run when a check may fall
                                               in the first one;
                                               ``blocks`` are
                                               :func:`generate_loop`'s,
                                               for the op-by-op twin
``(CALL, cost, callee slot, arg slots,         run the callee's tree (see
dest)``                                        below), or push a frame of
                                               the code in the callee
                                               slot; its RET writes
                                               ``dest``
``(RET, cost, slot or None)``                  pop the frame, pass the
                                               value
``(ALLOCA, cost, size, align, dest)``          allocate in the image
``(SLOW, cost, h, dest)``                      ``h(machine, frame)`` with
                                               the machine state synced;
                                               ``dest`` receives a blocked
                                               runtime call's result
``(PRICED, 0.0, key, op)``                     charge ``CostModel.of(key)``,
                                               then run ``op``: a SLOW op,
                                               or ``(PLAIN, 0.0, run)`` for
                                               one op charging nothing
=============================================  ==============================

The indices inside a run hold None: they are never dispatched.  An edge
is ``(target ops, start index)``.  Until :meth:`Code.make_runs`, a
FUSED op's ``run`` is None and no LOOP op is laid out.

A call tree is ``tree(mem, cycles, n, limit, args...) -> (value,
cycles, n)``: it runs the whole call while ``n`` stays below ``limit``
(the interpreter's next budget check), or raises :class:`Deopt`.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
import struct
import sys
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.dominators import DominatorTree
from ..analysis.loops import LoopInfo
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
from .memory import _BASE, _trap, load_code, place, store_code

PLAIN, JUMP, BR, SLOW, PRICED, FUSED, CALL, RET, ALLOCA, LOOP = range(10)
#: the kinds of a statement, which runs inside a FUSED run
_STATEMENTS = (PLAIN, JUMP, BR)


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
#
# Each operation is one expression template over its operands (``{a}``,
# ``{b}``, or ``{v}`` for a cast).  Generated runs inline it on register
# reads; ``binop_fn``, ``icmp_fn`` and ``cast_fn`` compile it into a
# function for vector lanes and constant folding.

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


def _fptosi(v, bits):
    if math.isnan(v) or math.isinf(v):
        raise UndefinedBehavior("fptosi of NaN/Inf")
    return _wrap_int(int(v), bits)


def _fptrunc(v):
    return struct.unpack("<f", struct.pack("<f", v))[0]


def _raise(exc: BaseException):
    raise exc


def _wrap(expr: str, bits: int) -> str:
    """``expr`` wrapped to ``bits`` in signed canonical form (i1 stays
    0/1): ``((v + half) & mask) - half`` equals ``_wrap_int(v, bits)``,
    and is ``v`` itself when ``v`` is in range."""
    mask = (1 << bits) - 1
    if bits == 1:
        return f"({expr}) & 1"
    half = 1 << (bits - 1)
    return (f"w if {-half} <= (w := {expr}) < {half} "
            f"else ((w + {half}) & {mask}) - {half}")


#: integer binops over ``{a}``/``{b}``, before wrapping; ``{bits}`` and
#: ``{m}`` are the width and its mask
_INT_BINOPS = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}",
    "and": "{a} & {b}", "or": "{a} | {b}", "xor": "{a} ^ {b}",
    "shl": "{a} << ({b} % {bits})", "ashr": "{a} >> ({b} % {bits})",
    "lshr": "({a} & {m}) >> ({b} % {bits})",
}
_FLOAT_BINOPS = {"fadd": "{a} + {b}", "fsub": "{a} - {b}",
                 "fmul": "{a} * {b}", "fdiv": "_fdiv({a}, {b})",
                 "frem": "_frem({a}, {b})"}
#: integer divisions over ``x`` (``{a}``) and ``y`` (``{b}``, not 0),
#: before wrapping: signed ones truncate toward zero (floor division
#: and modulo agree with that when the operands' signs do), unsigned
#: ones divide the values masked to ``{m}``
_DIVISIONS = {
    "sdiv": "x // y if ((x := {a}) < 0) == (y < 0) else -(-x // y)",
    "srem": "x % y if ((x := {a}) < 0) == (y < 0) else -(-x % y)",
    "udiv": "((x := {a}) & {m}) // (y & {m})",
    "urem": "((x := {a}) & {m}) % (y & {m})",
}

_ICMP = {"eq": "==", "ne": "!=", "slt": "<", "ult": "<", "sle": "<=",
         "ule": "<=", "sgt": ">", "ugt": ">", "sge": ">=", "uge": ">="}
_FCMP = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">",
         "oge": ">="}


def binop_expr(op: str, ty: Type) -> str:
    """Binary ``op`` on scalars of type ``ty``.  Integer results wrap to
    ``ty``'s width in signed canonical form (``i1`` stays 0/1)."""
    if op in _FLOAT_BINOPS:
        return _FLOAT_BINOPS[op]
    bits = ty.bits if isinstance(ty, IntType) else 64
    expr = _INT_BINOPS.get(op)
    if expr is not None:
        return _wrap(expr.format(a="{a}", b="{b}", bits=bits,
                                 m=(1 << bits) - 1), bits)
    if op in _DIVISIONS:  # the divisor first: a zero one traps
        div = _DIVISIONS[op].format(a="{a}", m=(1 << bits) - 1)
        return (f"_raise(UndefinedBehavior({f'{op} by zero'!r})) "
                f"if (y := {{b}}) == 0 else " + _wrap(div, bits))
    return f"_raise(VMError({f'bad binop {op}'!r}))"


def icmp_expr(pred: str, bits: int) -> str:
    """0/1 for integer predicate ``pred`` on ``bits``-wide operands
    (``u*`` predicates compare the unsigned values)."""
    cmp = _ICMP.get(pred)
    if cmp is None:
        return f"_raise(VMError({f'bad icmp pred {pred}'!r}))"
    if pred[0] == "u":
        mask = (1 << bits) - 1
        return f"1 if ({{a}} & {mask}) {cmp} ({{b}} & {mask}) else 0"
    return f"1 if {{a}} {cmp} {{b}} else 0"


def fcmp_expr(pred: str) -> str:
    """0/1 for ordered float predicate ``pred``; every ordered
    comparison is false on NaN."""
    cmp = _FCMP.get(pred)
    then = (f"(1 if {{a}} {cmp} {{b}} else 0)" if cmp is not None
            else f"_raise(KeyError({pred!r}))")
    return "0 if isnan({a}) or isnan({b}) else " + then


def cast_expr(op: str, to: Type, from_ty: Type) -> str:
    """Scalar cast ``op`` of ``{v}`` from ``from_ty`` to ``to``."""
    if op in ("bitcast", "inttoptr", "ptrtoint", "sext"):
        return "{v}"  # sext: values are already sign-canonical
    if op == "trunc":
        return _wrap("{v}", to.bits)
    if op == "zext":
        return f"{{v}} & {(1 << from_ty.bits) - 1}"
    if op == "fptosi":
        return f"_fptosi({{v}}, {to.bits})"
    if op in ("sitofp", "fpext"):
        return "float({v})"
    if op == "fptrunc":
        return "_fptrunc({v})"
    return f"_raise(VMError({f'bad cast {op}'!r}))"


def _safe(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return math.inf


#: the pure math intrinsics: name -> (arity, expression over ``{0}``
#: and ``{1}``), with C semantics (``sqrt`` of a negative number or of
#: NaN is NaN).  The runtime's handlers compute the same expressions
#: (:func:`intrinsic_fn`); a decoded call inlines them.
PURE_INTRINSICS: Dict[str, Tuple[int, str]] = {
    "sqrt": (1, "sqrt({0}) if {0} >= 0 else nan"),
    "fabs": (1, "abs({0})"),
    "exp": (1, "_safe(exp, {0})"),
    "log": (1, "log({0}) if {0} > 0 else -inf"),
    "pow": (2, "_safe(_pow, {0}, {1})"),
    "sin": (1, "sin({0})"),
    "cos": (1, "cos({0})"),
    "floor": (1, "floor({0})"),
    "ceil": (1, "ceil({0})"),
    "fmin": (2, "min({0}, {1})"),
    "fmax": (2, "max({0}, {1})"),
}


def intrinsic_fn(name: str) -> Callable:
    """``(x0[, x1]) -> result`` of pure intrinsic ``name``."""
    arity, expr = PURE_INTRINSICS[name]
    params = ("x0", "x1")[:arity]
    return _function(", ".join(params), expr.format(*params))


def binop_fn(op: str, ty: Type) -> Callable:
    """``(a, b) -> result`` of :func:`binop_expr`."""
    return _function("a, b", binop_expr(op, ty).format(a="a", b="b"))


def icmp_fn(pred: str, bits: int) -> Callable:
    """``(a, b) -> 0/1`` of :func:`icmp_expr`."""
    return _function("a, b", icmp_expr(pred, bits).format(a="a", b="b"))


def cast_fn(op: str, to: Type, from_ty: Type) -> Callable:
    """``v -> result`` of :func:`cast_expr`."""
    return _function("v", cast_expr(op, to, from_ty).format(v="v"))


# -- generated code -------------------------------------------------------------

#: the globals of all generated code
_NAMESPACE = {
    "UNSET": UNSET, "_trap": _trap, "isnan": math.isnan, "_fdiv": _fdiv,
    "_frem": _frem, "_fptosi": _fptosi, "_fptrunc": _fptrunc,
    "_raise": _raise, "VMError": VMError,
    "UndefinedBehavior": UndefinedBehavior,
    "_safe": _safe, "sqrt": math.sqrt, "exp": math.exp, "log": math.log,
    "_pow": math.pow, "sin": math.sin, "cos": math.cos,
    "floor": math.floor, "ceil": math.ceil, "nan": math.nan,
    "inf": math.inf,
}
#: the file name of generated runs, which is how a trap is traced to one
_RUN_FILE = "<vm run>"
#: distinct sources kept compiled; programs of one session share most
#: of their runs, so a bounded cache serves every probe
CACHE_SIZE = 2048


@functools.lru_cache(maxsize=CACHE_SIZE)
def _function(params: str, expr: str) -> Callable:
    return eval(f"lambda {params}: {expr}", _NAMESPACE)


#: a slot named in statement source
_SLOT = re.compile(r"regs\[(\d+)\]")
#: a statement that writes a slot (a read is never followed by " = ")
_WRITE = re.compile(r"regs\[(\d+)\] = ")
#: ``regs`` itself handed to a helper (the generic GEP)
_HANDED = "(regs)"
#: a return, with its indent
_RETURN = re.compile(r"\n( *)return ")
#: a priced intrinsic's unscaled charge: a line of its statement
_CHARGE = "cycles += "


class _Body:
    """A generated function's body as it is built: its lines and
    constants, and where a trap in it stands.  That is kept per
    *segment*, a stretch of one statement's lines over which the
    op-by-op path has charged the same: each segment's first line
    (``lines``), its statement's offset (``at``) and, when the body
    folds its charges, how much of its block's charge the op-by-op
    path has not made yet there (``post``)."""

    def __init__(self, fold: bool):
        self.fold = fold
        self.lines: List[str] = []
        self.consts: list = []
        self.starts: List[int] = []
        self.at: List[int] = []
        self.post: List[float] = []

    def _segment(self, offset: int, owed: float) -> None:
        self.starts.append(len(self.lines))
        self.at.append(offset)
        self.post.append(owed)

    def block(self, stmts, indent: str = "") -> None:
        """Append the statements of one block (or run), each its source
        with constant ``$i`` named after its place in ``consts``.  Op
        by op, each first charges ``gpu * cost``; folded, the block
        first charges once the sum of its statements' costs and of
        their priced intrinsics' unscaled charges, which is the same
        float when ``gpu`` is 1.0 and every charge and sum is an
        integer below 2**53 (:func:`exact_charges`)."""
        srcs = []
        for _, _, src, cs in stmts:
            for i in reversed(range(len(cs))):  # $12 before $1
                src = src.replace(f"${i}", f"k{len(self.consts) + i}")
            self.consts += cs
            srcs.append(src.split("\n") if src else [])
        lines = self.lines
        if not self.fold:
            for offset, (stmt, src) in enumerate(zip(stmts, srcs)):
                self._segment(offset, 0.0)
                if stmt[1] is not None:
                    lines.append(f"{indent}cycles += gpu * {stmt[1]!r}")
                lines += [indent + line for line in src]
            return
        # each statement's cost, then its priced intrinsic's charge
        charges = [[stmt[1] or 0.0] + (
            [float(line[len(_CHARGE):]) for line in src
             if line.startswith(_CHARGE)] if _CHARGE in stmt[2] else [])
            for stmt, src in zip(stmts, srcs)]
        owed = sum(map(sum, charges))
        lines.append(f"{indent}cycles += {owed!r}")
        for offset, (cs, src) in enumerate(zip(charges, srcs)):
            owed -= cs[0]
            self._segment(offset, owed)
            if len(cs) == 1:
                lines += [indent + line for line in src]
                continue
            for line in src:
                if line.startswith(_CHARGE):
                    owed -= float(line[len(_CHARGE):])
                    self._segment(offset, owed)
                else:
                    lines.append(indent + line)

    def function(self, head: str, promote: bool) -> Callable:
        """``def head, lines=, at=[, post=]): body`` with this body's
        constants bound (:func:`_factory`)."""
        return _factory(head, "\n".join(self.lines), tuple(self.starts),
                        tuple(self.at), tuple(self.post) if self.fold
                        else None, promote, len(self.consts))(*self.consts)


#: the lines before the first line of a generated function's body
_HEAD = 2


@functools.lru_cache(maxsize=CACHE_SIZE)
def _factory(head: str, text: str, starts: tuple, at: tuple,
             post: Optional[tuple], promote: bool, nconsts: int) -> Callable:
    """``make(k0, ...)``, which returns the function ``def head,
    lines=, at=[, post=]): text`` with constants ``k0, ...`` bound;
    compiled once per distinct body, so that the programs of a session
    share it.  ``starts`` are the body lines where :func:`trap_point`'s
    segments start.  Promoted, every slot the body names lives in a
    local: loaded on entry, and each slot it writes stored back before
    each return.  A trap stores nothing back: no frame's registers are
    read after one.  A body that hands ``regs`` itself to a helper is
    not promoted."""
    prologue = ["data = mem.data", "brk = mem.brk"] * ("brk" in text)
    if promote and _HANDED not in text:
        named = sorted({int(s) for s in _SLOT.findall(text)})
        back = "".join(f"regs[{s}] = r{s}\n" for s in sorted(
            {int(s) for s in _WRITE.findall(text)}))
        prologue += [f"r{s} = regs[{s}]" for s in named]
        head_text, *parts = text.split("regs[")  # each "N]..."
        text = "\n" + head_text + "".join(
            ["r" + part.replace("]", "", 1) for part in parts])
        # the write-back goes before each return, at its indent
        returns = [text.count("\n", 0, m.start())
                   for m in _RETURN.finditer(text)]
        text = _RETURN.sub(lambda m: "\n" + back.replace(
            "regs", m[1] + "regs") + m[0][1:], text)[1:]
        added = back.count("\n")
        starts = tuple(s + added * bisect.bisect_left(returns, s)
                       for s in starts)
    first = _HEAD + 1 + len(prologue)
    params = f"lines={tuple(first + s for s in starts)}, at={at}"
    if post is not None:
        params += f", post={post}"
    source = (f"def make({', '.join(f'k{i}' for i in range(nconsts))}):\n"
              f"    def {head}, {params}):\n"
              + "".join(f"        {line}\n" for line in prologue)
              + "        " + text.replace("\n", "\n        ") + "\n"
              + f"    return {head[:head.index('(')]}\n")
    ns: dict = {}
    exec(compile(source, _RUN_FILE, "exec"), _NAMESPACE, ns)
    return ns["make"]


def generate(stmts, fold: bool = False) -> Callable:
    """One function ``run(regs, mem, gpu, cycles) -> (cycles, edge or
    None)`` that runs ``stmts`` in order.  A statement is ``(kind, cost,
    source, constants)``: the run charges ``gpu * cost`` (unless cost is
    None), then runs the source, in which ``$i`` names constant ``i``.
    Only a BR or JUMP, the last statement, returns an edge.  ``fold``
    charges the whole run once, first (:meth:`_Body.block`).

    The source is compiled once per distinct text; this program's
    constants are bound through the cached factory's parameters.
    ``lines``, ``at`` and ``post``, parameters left at their defaults,
    let :func:`trap_point` trace a trap to its statement.
    """
    body = _Body(fold)
    body.block(stmts)
    if stmts[-1][0] == PLAIN:
        body.lines.append("return cycles, None")
    return body.function("run(regs, mem, gpu, cycles", promote=False)


#: a statement line that takes an edge
_EDGE = re.compile(r"^( *)return cycles, \$(\d+)$", re.M)


def generate_loop(blocks, fold: bool = False) \
        -> Optional[Tuple[Callable, int]]:
    """One function ``loop(regs, mem, gpu, cycles, n, limit) -> (cycles,
    n, edge)`` that runs an innermost loop whose blocks hold nothing but
    statements, and the most instructions one iteration can count.
    ``blocks`` holds each block's ``(ops, statements)``, the header's
    first; ``n`` counts instructions.

    A Python ``while`` goes from block to block; each statement charges
    its cost and runs, in order, as in :func:`generate`, or each block
    charges once, first, with ``fold``.  Every slot the loop names
    lives in a local while it runs (:meth:`_Body.function`).  An edge
    out of the loop returns, and so does the edge back to the header
    once ``n`` reaches ``limit``: the caller passes the next budget
    check less one iteration's worst case, so that no check falls
    inside an iteration.  ``lines``, ``at`` and ``post`` let
    :func:`trap_point` trace a trap to its op.  None when the blocks
    have a cycle that does not pass through the header (irreducible
    control flow)."""
    where = {id(ops): b for b, (ops, _) in enumerate(blocks)}
    many = len(blocks) > 1
    body = _Body(fold)
    after: List[set] = []  # the blocks each block can go on to
    body.lines += ["b = 0"] * many + ["while True:"]
    for b, (_, stmts) in enumerate(blocks):
        indent = "    "
        if many:
            body.lines.append("    " + ("if b == 0:" if b == 0 else
                                        "else:" if b == len(blocks) - 1 else
                                        f"elif b == {b}:"))
            indent = "        "
        after.append(set())

        def take(stmt, m):
            ind, c = m[1], int(m[2])
            t = where.get(id(stmt[3][c][0]))
            if t is None:
                return f"{ind}n += {len(stmts)}\n{ind}return cycles, n, ${c}"
            if t:
                after[b].add(t)
                return f"{ind}n += {len(stmts)}\n{ind}b = {t}\n{ind}continue"
            return (f"{ind}n += {len(stmts)}\n{ind}if n >= limit:\n"
                    f"{ind}    return cycles, n, ${c}\n"
                    + f"{ind}b = 0\n" * many + f"{ind}continue")
        body.block([stmt[:2] + (_EDGE.sub(functools.partial(take, stmt),
                                          stmt[2]),) + stmt[3:]
                    for stmt in stmts], indent)
    worst = _longest(after, [len(stmts) for _, stmts in blocks])
    if worst is None:
        return None
    return body.function("loop(regs, mem, gpu, cycles, n, limit",
                         promote=True), worst


def _longest(after: List[set], lengths: List[int]) -> Optional[int]:
    """The longest path from block 0 along ``after``, summing
    ``lengths``; None if ``after`` has a cycle."""
    memo: Dict[int, int] = {}
    path, nexts = [0], [iter(after[0])]
    while path:
        t = next(nexts[-1], None)
        if t is None:
            b = path.pop()
            nexts.pop()
            memo[b] = lengths[b] + max((memo[s] for s in after[b]), default=0)
        elif t in path:
            return None
        elif t not in memo:
            path.append(t)
            nexts.append(iter(after[t]))
    return memo[0]


def trap_point(tb, n: int) -> Optional[Tuple[int, float]]:
    """Where a generated run, loop or tree called from traceback entry
    ``tb``'s frame trapped, if it did, the call having started at ``n``
    instructions: ``(count, cycles)``, the instructions counted up to
    and including the statement holding the raising line, and the
    cycles charged up to and including it (a folded charge less what
    the op-by-op path had not charged yet there).  In a tree, that is
    the innermost generated frame: the callee that trapped."""
    tb = tb.tb_next
    if tb is None or tb.tb_frame.f_code.co_filename != _RUN_FILE:
        return None
    while tb.tb_next is not None \
            and tb.tb_next.tb_frame.f_code.co_filename == _RUN_FILE:
        tb = tb.tb_next
    f = tb.tb_frame.f_locals
    k = bisect.bisect_right(f["lines"], tb.tb_lineno) - 1
    if "limit" in f:  # loops and trees count from their block's first op
        n = f["n"]
    post = f.get("post")
    return (n + f["at"][k] + 1,
            f["cycles"] if post is None else f["cycles"] - post[k])


def steps(op: tuple) -> list:
    """A FUSED op's statements as one-op runs, generated on first use:
    the path for a run that a budget check cuts."""
    out = op[4]
    if not out:
        out.extend(generate((stmt,)) for stmt in op[3])
    return out


def charged(op: tuple) -> Callable:
    """A FUSED or LOOP op's function that charges op by op, generated
    on first use: the path where folded charges would not be exact
    (:func:`exact_charges`)."""
    out = op[-1]
    if not out:
        out.append(generate(op[3]) if op[0] == FUSED
                   else generate_loop(op[4])[0])
    return out[0]


def max_charge(costs: Dict[str, float],
               intrinsic_costs: Dict[str, float]) -> Optional[float]:
    """The most one instruction outside SLOW and PRICED ops can charge
    with ``gpu`` at 1.0 (an opcode's cost plus a pure intrinsic's), or
    None when one of those costs is not an integer: then no charge is
    folded."""
    pure = [c for name, c in intrinsic_costs.items()
            if name in PURE_INTRINSICS]
    if not all(float(c).is_integer() for c in [*costs.values(), *pure]):
        return None
    return (max(map(abs, costs.values()), default=0.0)
            + max(map(abs, pure), default=0.0))


def exact_charges(cycles, gpu: float, bound: float) -> bool:
    """May runs and loops fold their charges, from ``cycles`` on, until
    the next SLOW or PRICED op?  Yes when ``gpu`` is 1.0 and ``cycles``
    an integer within ``bound`` (``2**53`` less the most the
    instructions left before the step limit can charge, see
    :func:`max_charge`): every charge is then an integer and every sum
    exact, so one sum per block is the float the op-by-op charges
    reach."""
    return gpu == 1.0 and cycles % 1 == 0 and -bound <= cycles <= bound


# -- call trees -------------------------------------------------------------------

class _Unplanted:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<unplanted>"


#: a code's or function's call tree before its first use
UNPLANTED = _Unplanted()


class Deopt(Exception):
    """Raised by a call tree at a block it may not run whole, because a
    budget check could fall inside it: the frames the interpreter goes
    on from, each ``(code, ops, index, regs, dest)``, innermost first.
    The innermost stands at the block's first op, every other one at
    its own CALL op, whose result goes to slot ``dest``; ``n`` and
    ``cycles`` are the counters at that block."""

    def __init__(self, code: "Code", template: list, ops: list, index: int,
                 local: dict, n: int, cycles: float):
        super().__init__()
        self.n = n
        self.cycles = cycles
        self.levels = [(code, ops, index, _frame_regs(template, local), None)]


def _unwind(code: "Code", template: list, ops: list, index: int,
            local: dict, dest: int) -> None:
    """Add the caller's frame, at its CALL op, to the :class:`Deopt`
    being handled.  It is read here rather than bound by the caller's
    ``except``, so that the caller's ``locals()`` never holds it: that
    would make a cycle through the traceback's frames."""
    sys.exc_info()[1].levels.append(
        (code, ops, index, _frame_regs(template, local), dest))


def _frame_regs(template: list, local: dict) -> list:
    """A frame's registers: ``template`` with a tree's locals ``r<slot>``
    written over it."""
    regs = template.copy()
    for name, value in local.items():
        if name[0] == "r" and name[1:].isdigit():
            regs[int(name[1:])] = value
    return regs


class _Tree:
    """A code's call tree before it is bound: ``make(template, code,
    callee trees..., consts..., constant slot values...)`` returns the
    program's ``tree(mem, cycles, n, limit, args...) -> (value, cycles,
    n)``.  ``calls`` are ``(callee slot, argument count)`` in parameter
    order."""

    __slots__ = ("make", "calls", "consts", "const_slots")

    def __init__(self, make: Callable, calls: tuple, consts: tuple,
                 const_slots: tuple):
        self.make = make
        self.calls = calls
        self.consts = consts
        self.const_slots = const_slots


def _treeable(code: "Code") -> bool:
    """No SLOW or PRICED op, and no statement hands ``regs`` itself to a
    helper."""
    for ops in code.blocks:
        for op in ops:
            if op is None:
                continue
            if op[0] in (SLOW, PRICED):
                return False
            if op[0] == LOOP:
                op = op[3]
            if op[0] == FUSED and any(_HANDED in s[2] for s in op[3]):
                return False
    return True


class _TreeWriter:
    """Writes a code's call tree: one generated function that runs the
    whole body with every slot in a local ``r<slot>``.

    Its *blocks* are the places edges enter (and the entry); each is cut
    into *segments* that end at a CALL, or at the block's RET, BR or
    JUMP.  A segment first checks that ``n`` plus its length stays
    below ``limit``, else raises :class:`Deopt` for its first op; then
    it charges its cycles once and runs its statements, an ALLOCA, a
    RET and a CALL being statements too.  A call goes straight to the
    callee's tree, and adds the caller's frame to a :class:`Deopt` that
    passes through.

    Blocks are laid out in *chains*: a block whose one edge in comes
    from the block before it in the chain follows it directly, and
    every other edge sets the block number ``b`` and goes round a
    ``while`` that picks the chain ``b`` starts.  Each innermost loop
    has a ``while`` of its own, which an edge leaving the loop breaks;
    its header checks the loop's longest iteration, so its other blocks
    check nothing (as a LOOP op does)."""

    def __init__(self, code: "Code"):
        self.code = code
        self.where: Dict[Tuple[int, int], int] = {}
        self.starts: List[Tuple[list, int]] = []
        self.body = _Body(fold=True)
        #: the callee slots called, and the arguments each call passes
        self.calls: Dict[int, int] = {}
        self.dests: set = set()

    def number(self, ops: list, start: int) -> int:
        key = (id(ops), start)
        b = self.where.get(key)
        if b is None:
            b = self.where[key] = len(self.starts)
            self.starts.append((ops, start))
        return b

    def segments(self, ops: list, i: int) -> List[tuple]:
        """The block at ``ops[i]`` as ``(start, [(index, op)...])``
        segments."""
        out, items, start = [], [], i
        while i < len(ops):
            op = ops[i]
            if op[0] == LOOP:
                op = op[3]  # its header's run: a tree goes block by block
            items.append((i, op))
            if op[0] == FUSED:
                i += op[1]
                if op[3][-1][0] != PLAIN:
                    break
                continue
            if op[0] == RET:
                break
            i += 1
            if op[0] == CALL:
                out.append((start, items))
                items, start = [], i
        out.append((start, items))
        return out

    def write(self) -> _Tree:
        code = self.code
        self.number(code.entry, 0)
        self.blocks: List[list] = []
        #: each block's edges: their targets, with repeats
        self.edges: List[List[int]] = []
        while len(self.blocks) < len(self.starts):  # edges add blocks
            segments = self.segments(*self.starts[len(self.blocks)])
            self.blocks.append(segments)
            last = segments[-1][1][-1][1]
            self.edges.append([self.number(*last[3][-1][3][int(m[2])])
                               for m in _EDGE.finditer(last[3][-1][2])]
                              if last[0] == FUSED else [])
        preds = [0] * len(self.blocks)
        for targets in self.edges:
            for t in targets:
                preds[t] += 1
        #: the innermost loops: header -> its blocks, header first
        loops: Dict[int, List[int]] = {}
        for ops, start, loop_blocks in code.loops:
            header = self.where.get((id(ops), start))
            if header is not None:  # entered
                ids = {id(bops) for bops, _ in loop_blocks}
                loops[header] = [header] + [
                    b for b, (bops, _) in enumerate(self.starts)
                    if id(bops) in ids and b != header]
        inside = {b for members in loops.values() for b in members}
        #: a block that follows the one before it in its chain
        self.follows = [preds[b] == 1 and b != 0 and b not in loops
                        for b in range(len(self.blocks))]
        #: each loop's header check, or None: check every block
        self.worst: Dict[int, Optional[int]] = {
            h: self.longest(members) for h, members in loops.items()}
        self.checked = {b for h, members in loops.items()
                        if self.worst[h] is not None
                        for b in members if b != h}
        top = [b for b in range(len(self.blocks)) if b not in inside
               or b in loops]
        arms = self.chains(top, set(top) - set(loops), set(loops))
        if len(arms) == 1 and all(
                t == nxt for b, nxt in zip(arms[0], arms[0][1:] + [None])
                for t in self.edges[b]):
            self.chain(arms[0], "", None)  # straight through
        else:
            self.body.lines += ["b = 0", "while True:"]
            self.dispatch(arms, loops, "    ")
        return self.function()

    def longest(self, members: List[int]) -> Optional[int]:
        """The most instructions one iteration of the loop ``members``
        (header first) can count, or None (irreducible, or a call)."""
        if any(len(self.blocks[b]) > 1 for b in members):
            return None
        index = {b: i for i, b in enumerate(members)}
        return _longest(
            [{index[t] for t in self.edges[b] if index.get(t, 0)}
             for b in members],
            [self.length(self.blocks[b][0][1]) for b in members])

    @staticmethod
    def length(items: list) -> int:
        return sum(op[1] if op[0] == FUSED else 1 for _, op in items)

    def chains(self, heads: List[int], allowed: set,
               ends: frozenset = frozenset()) -> List[List[int]]:
        """``heads`` in order, each followed by the blocks in
        ``allowed`` that follow it (see :attr:`follows`); a chain that
        reaches a block in ``ends`` (a loop, which runs in its own
        ``while``) stops there."""
        placed: set = set()
        out = []
        for head in heads:
            if head in placed:
                continue
            chain = [head]
            placed.add(head)
            while chain[-1] not in ends:
                nxt = next((t for t in self.edges[chain[-1]]
                            if self.follows[t] and t in allowed
                            and t not in placed), None)
                if nxt is None:
                    break
                chain.append(nxt)
                placed.add(nxt)
            out.append(chain)
        return out

    def dispatch(self, arms: List[List[int]], loops: dict,
                 indent: str) -> None:
        """An ``if``/``elif`` chain on ``b`` over ``arms``; an arm that
        starts at a loop header runs the loop's chains in a ``while`` of
        its own."""
        lines = self.body.lines
        for k, arm in enumerate(arms):
            inner = indent
            if len(arms) > 1:
                inner += "    "
                lines.append(indent + (
                    "else:" if k == len(arms) - 1 else
                    f"{'elif' if k else 'if'} b == {arm[0]}:"))
            members = loops.get(arm[0])
            if members is None:
                self.chain(arm, inner, None)
                continue
            lines.append(inner + "while True:")
            chains = self.chains(members, set(members))
            if len(chains) == 1:
                self.chain(chains[0], inner + "    ", chains[0])
                continue
            for j, chain in enumerate(chains):
                lines.append(inner + "    " + (
                    "else:" if j == len(chains) - 1 else
                    f"{'elif' if j else 'if'} b == {chain[0]}:"))
                self.chain(chain, inner + "        ", members)

    def chain(self, arm: List[int], indent: str,
              loop: Optional[list]) -> None:
        """The blocks of ``arm`` in order, each edge to the next one
        falling through.  Inside ``loop`` (its blocks), an edge to one
        of them goes round the loop's ``while`` and any other edge
        breaks out of it; ``loop`` is the arm itself when it is the
        loop's only one, and then ``b`` need not be set to go round."""
        for i, b in enumerate(arm):
            nxt = arm[i + 1] if i + 1 < len(arm) else None
            ops = self.starts[b][0]
            for start, items in self.blocks[b]:
                self.segment(b, ops, start, items, indent, loop, nxt,
                             loop is arm)

    def segment(self, block: int, ops: list, start: int, items: list,
                indent: str, loop: Optional[list], nxt: Optional[int],
                alone: bool) -> None:
        length = self.length(items)
        stmts = []
        for index, op in items:
            kind = op[0]
            if kind == FUSED:
                stmts += op[3]
            elif kind == ALLOCA:
                _, cost, size, align, d = op
                stmts.append((PLAIN, cost,
                              f"regs[{d}] = mem.allocate({size}, {align})\n"
                              "data = mem.data\nbrk = mem.brk", ()))
            elif kind == RET:
                value = "None" if op[2] is None else f"regs[{op[2]}]"
                stmts.append((PLAIN, op[1],
                              f"return {value}, cycles, n + {length}", ()))
            else:  # a CALL, which ends the segment
                _, cost, c, args, d = op
                self.calls[c] = len(args)
                self.dests.add(d)
                stmts.append((PLAIN, cost, (
                    f"n += {length}\ntry:\n"
                    f"    regs[{d}], cycles, n = f{c}(mem, cycles, n, limit"
                    + "".join(f", regs[{a}]" for a in args) + ")\n"
                    "except Deopt:\n"
                    f"    _unwind(C, T, $0, {index}, locals(), {d})\n"
                    "    raise\n"
                    "data = mem.data\nbrk = mem.brk"), (ops,)))
        last = stmts[-1]
        if last[0] != PLAIN:  # the block's BR or JUMP: its edges

            def take(m):
                ind, t = m[1], self.number(*last[3][int(m[2])])
                out = f"{ind}n += {length}"
                if t == nxt:
                    return out  # falls through into the next block
                if loop is None or t in loop:
                    go = "continue"
                    if alone and t == loop[0]:
                        return f"{out}\n{ind}{go}"
                else:
                    go = "break"
                return f"{out}\n{ind}b = {t}\n{ind}{go}"
            stmts[-1] = last[:2] + (_EDGE.sub(take, last[2]),) + last[3:]
        body = self.body
        if block not in self.checked:
            check = self.worst.get(block) or length
            body.consts.append(ops)
            body.lines += [f"{indent}if n + {check} >= limit:",
                           f"{indent}    raise Deopt(C, T, "
                           f"k{len(body.consts) - 1}, {start}, locals(), "
                           "n, cycles)"]
        body.block(stmts, indent)

    def function(self) -> _Tree:
        """Bind the written body's slots to locals and compile it."""
        code, body = self.code, self.body
        text = "\n".join(body.lines)
        written = {int(s) for s in _WRITE.findall(text)} | self.dests
        args = set(code.arg_slots)
        consts = sorted({int(s) for s in _SLOT.findall(text)}
                        - written - args)
        unset = sorted((code.checked & written) - args)
        head, *parts = text.split("regs[")  # each "N]..."
        text = head + "".join("r" + part.replace("]", "", 1)
                              for part in parts)
        prologue = ["data = mem.data", "brk = mem.brk"] * ("brk" in text)
        if unset:
            prologue.append(" = ".join(f"r{s}" for s in unset) + " = UNSET")
        first = _HEAD + 1 + len(prologue)
        params = ", ".join(
            ["mem", "cycles", "n", "limit"]
            + [f"r{s}" for s in code.arg_slots]
            + [f"r{s}=r{s}" for s in consts]
            + [f"lines={tuple(first + s for s in body.starts)}",
               f"at={tuple(body.at)}", f"post={tuple(body.post)}"])
        names = ", ".join(["T", "C"] + [f"f{c}" for c in self.calls]
                          + [f"k{i}" for i in range(len(body.consts))]
                          + [f"r{s}" for s in consts])
        source = (f"def make({names}):\n    def tree({params}):\n"
                  + "".join(f"        {line}\n"
                            for line in prologue + text.split("\n"))
                  + "    return tree\n")
        return _Tree(_compiled(source), tuple(self.calls.items()),
                     tuple(body.consts), tuple(consts))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _compiled(source: str) -> Callable:
    """The ``make`` that ``source`` defines, compiled once per text."""
    ns: dict = {}
    exec(compile(source, _RUN_FILE, "exec"), _NAMESPACE, ns)
    return ns["make"]


_NAMESPACE.update(Deopt=Deopt, _unwind=_unwind)


# -- decoded code ---------------------------------------------------------------

#: link kinds: per-program template slots, filled by name (:meth:`Code.bind`)
_GLOBAL, _FUNCTION, _CALL, _RUNTIME = range(4)


class Code:
    """One function body decoded against one cost table: the slot
    layout, the op lists and their runs.  It holds no program's IR, so
    every program of a session whose function has the same name, printed
    body, argument count and cost table runs the same code.

    ``template`` holds what the printed body fixes (constants, UNSET);
    ``links`` name what each program supplies: ``(slot, kind, name,
    nargs)`` for a global's address, a function value or a callee's
    code, and ``(None, _RUNTIME, name, 0)`` for a callee that must not
    be defined, because its calls go to the runtime.

    The op lists hold each run's statements from decoding on; the
    functions of its runs and loops are generated on the first
    interpreter entry (:meth:`make_runs`), and its call tree on the
    first call that may run it as one (:meth:`tree`): code that only
    runs as a tree never generates its runs.  ``loops`` are its
    innermost loops of statements, ``(header ops, start index,
    blocks)`` with ``blocks`` as :func:`generate_loop` takes them, and
    ``checked`` the slots some statement checks for :data:`UNSET`."""

    __slots__ = ("template", "links", "arg_slots", "entry", "blocks",
                 "loops", "checked", "ready", "_tree")

    def __init__(self, template: list, links: tuple,
                 arg_slots: Tuple[int, ...], entry: list,
                 blocks: List[list], loops: tuple, checked: frozenset):
        self.template = template
        self.links = links
        self.arg_slots = arg_slots
        self.entry = entry
        self.blocks = blocks
        self.loops = loops
        self.checked = checked
        #: whether the runs and loops are generated
        self.ready = False
        self._tree = UNPLANTED

    def bind(self, owner: "DecodedModule") -> Optional[list]:
        """The template of a frame of this code in ``owner``'s program,
        or None when one of its names means something else there."""
        template = self.template.copy()
        module = owner.module
        for slot, kind, name, nargs in self.links:
            if kind == _GLOBAL:
                value = owner.globals.get(module.globals.get(name))
            else:
                value = module.functions.get(name)
                if kind == _RUNTIME:
                    if value is not None and not value.is_declaration:
                        return None
                    continue
                if kind == _CALL and value is not None:
                    if value.is_declaration:
                        return None
                    value = owner.function(value,
                                           min(nargs, len(value.args)))
            if value is None:
                return None
            template[slot] = value
        return template

    def make_runs(self) -> None:
        """Generate the function of each run (a FUSED op) and of each
        innermost loop (a LOOP op at its header's run), once."""
        if self.ready:
            return
        self.ready = True
        for ops in self.blocks:
            for i, op in enumerate(ops):
                if op is not None and op[0] == FUSED:
                    ops[i] = (FUSED, op[1], generate(op[3], fold=True),
                              *op[3:])
        for ops, start, blocks in self.loops:
            made = generate_loop(blocks, fold=True)
            if made is not None:
                ops[start] = (LOOP, made[1], made[0], ops[start], blocks, [])

    def tree(self) -> Optional["_Tree"]:
        """This code as a call tree, generated once; None when it has a
        SLOW or PRICED op or hands ``regs`` to a helper."""
        if self._tree is UNPLANTED:
            self._tree = _TreeWriter(self).write() if _treeable(self) \
                else None
        return self._tree

    def release(self) -> None:
        """Empty the op lists (cyclic through loop edges): for code no
        other program shares."""
        for ops in self.blocks:
            ops.clear()


def cost_tables(costs: Dict[str, float],
                intrinsic_costs: Dict[str, float]) -> tuple:
    """The key of decoded code's cost tables."""
    return tuple(sorted(costs.items())), tuple(sorted(intrinsic_costs.items()))


class CodeTable(dict):
    """A session's shared :class:`Code`, keyed as in
    :class:`DecodedModule`.  When its last reference drops (the
    session's compiler, its programs and their decoded modules are
    gone), it empties every code's op lists, which are cyclic through
    loop edges, so that reference counting frees the code rather than
    the cyclic collector."""

    __slots__ = ()

    def __del__(self):
        for code in self.values():
            code.release()


class DecodedModule:
    """A module's functions decoded against one cost table.

    Functions are decoded lazily, on their first call; one instance is
    shared by every Machine that runs the module with that table.
    ``globals`` holds the address each global gets in a fresh image
    (the Machine allocates them in the same order).

    ``shared`` (a :class:`CodeTable` owned by the caller, e.g. the
    session's :class:`~repro.oraql.compiler.Compiler`) and ``hashes``
    (each function's printed body hash) let programs share
    :class:`Code`: it is keyed by ``(name, body hash, nargs, cost
    tables)``, so a body is decoded once per session, and each program
    only binds its own template (:meth:`Code.bind`).  The cost tables
    are the opcode table and the intrinsic table, whose pure entries
    decoded calls charge.

    A function may lack its body until it is decoded: ``take(fn)``
    gives it one (see :class:`~repro.oraql.fnmemo.Handover`), so a
    function whose code is shared needs none."""

    def __init__(self, module: Module, costs: Dict[str, float],
                 intrinsic_costs: Dict[str, float],
                 shared: Optional[dict] = None,
                 hashes: Optional[Dict[str, str]] = None,
                 take: Optional[Callable[[Function], None]] = None):
        self.module = module
        self.costs = dict(costs)
        self.intrinsic_costs = dict(intrinsic_costs)
        self.globals: Dict[GlobalVariable, int] = {}
        brk = _BASE
        for gv in module.globals.values():
            ty = gv.value_type
            self.globals[gv], brk = place(brk, ty.size(), ty.align())
        self._functions: Dict[Tuple[Function, int], DecodedFunction] = {}
        self._shared = shared
        self._hashes = hashes or {}
        self._take = take
        self._table = cost_tables(costs, intrinsic_costs)
        #: see :func:`max_charge`
        self.max_charge = max_charge(costs, intrinsic_costs)
        #: code decoded for this program alone, emptied on release
        self._private: List[Code] = []

    def function(self, fn: Function, nargs: int) -> "DecodedFunction":
        """``fn`` as entered with ``nargs`` arguments (frames that get
        fewer arguments than parameters read the rest as unevaluated)."""
        key = (fn, nargs)
        code = self._functions.get(key)
        if code is None:
            code = self._functions[key] = DecodedFunction(self, fn, nargs)
        return code

    def code(self, fn: Function, nargs: int) -> Tuple[Code, list]:
        """``fn``'s code and this program's template for it: the shared
        code when its key was decoded before and binds here, otherwise
        freshly decoded (and shared from then on if it may be)."""
        body = self._hashes.get(fn.name)
        key = None
        if self._shared is not None and body is not None:
            key = (fn.name, body, nargs, self._table)
            code = self._shared.get(key)
            if code is not None:
                template = code.bind(self)
                if template is not None:
                    return code, template
        if self._take is not None:
            self._take(fn)
        decoder = _Decoder(self, fn, nargs)
        code, template = decoder.run()
        if key is not None and decoder.shareable \
                and key not in self._shared:
            self._shared[key] = code
        else:
            self._private.append(code)
        return code, template

    def release(self) -> None:
        """Forget every function and its template, and empty the op
        lists of code no other program shares, so that this program's
        decoded code (cyclic through loop edges and calls) is freed by
        reference counting.  No machine may be running it."""
        for code in self._functions.values():
            code.template = code.code = code.tree = None
        self._functions.clear()
        for code in self._private:
            code.release()
        self._private.clear()


class DecodedFunction:
    """One function of one program: its :class:`Code`, argument slots
    and this program's template once bound; ``entry`` is None until the
    first frame enters it, and ``tree`` :data:`UNPLANTED` until the
    first call that may run it as a call tree (:meth:`plant`)."""

    __slots__ = ("owner", "fn", "nargs", "code", "template", "arg_slots",
                 "entry", "tree")

    def __init__(self, owner: DecodedModule, fn: Function, nargs: int):
        self.owner = owner
        self.fn = fn
        self.nargs = nargs
        self.code: Optional[Code] = None
        self.template: Optional[list] = None
        self.arg_slots: Tuple[int, ...] = ()
        self.entry: Optional[list] = None
        self.tree = UNPLANTED

    def bind(self) -> Code:
        """The code and this program's template, decoded or shared."""
        if self.code is None:
            self.code, self.template = self.owner.code(self.fn, self.nargs)
            self.arg_slots = self.code.arg_slots
        return self.code

    def decode(self) -> None:
        """Ready for frames: bound, with the code's runs generated."""
        code = self.bind()
        code.make_runs()
        self.entry = code.entry

    def plant(self, path: tuple = ()) -> Optional[Callable]:
        """This function's call tree in its program, made once: the
        code's tree bound to this program's template and to its
        callees' trees, or None when the code has no tree, a callee has
        none or takes another number of arguments, or the function is
        on a cycle of calls (``path`` holds the functions whose trees
        are being planted)."""
        if self.tree is not UNPLANTED:
            return self.tree
        if self in path:  # a cycle: each function on it gets None
            return None
        shape = self.bind().tree()
        tree = None
        if shape is not None:
            path += (self,)
            template = self.template
            callees = []
            for slot, nargs in shape.calls:
                callee = template[slot]
                grown = callee.plant(path)
                if grown is None or len(callee.arg_slots) != nargs:
                    break
                callees.append(grown)
            else:
                tree = shape.make(template, self.code, *callees,
                                  *shape.consts,
                                  *[template[s] for s in shape.const_slots])
        self.tree = tree
        return tree


def _checked_slow(h, checks):
    def op(m, frame):
        regs = frame.regs
        for slot, fail in checks:
            if regs[slot] is UNSET:
                raise fail()
        h(m, frame)
    return op


class _Decoder:
    """Decodes one function: slots, template, links, op lists, runs."""

    def __init__(self, owner: DecodedModule, fn: Function, nargs: int):
        self.owner = owner
        self.fn = fn
        self.nargs = nargs
        self.entry_block = fn.entry
        self.template: List[object] = [None, UNSET]  # SINK, HOLE
        self.slots: Dict[object, int] = {}
        self.links: List[tuple] = []
        #: False when the code depends on more than the printed body:
        #: then it is decoded for each program
        self.shareable = True
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
        #: each block's runs: start index -> (statements, end index)
        self.runs: Dict[BasicBlock, Dict[int, tuple]] = {}
        #: each JUMP at (block, index): (phi moves, their constants,
        #: target block)
        self.jumps: Dict[Tuple[BasicBlock, int], tuple] = {}
        #: the slots a statement checks for UNSET before reading them
        self.checked: set = set()

    # -- slots -------------------------------------------------------------
    def slot(self, v: Value) -> int:
        s = self.slots.get(v)
        if s is None:
            s = self.slots[v] = len(self.template)
            self.template.append(UNSET)
        return s

    def _constant(self, v, value) -> int:
        s = self.slots.get(v)
        if s is None:
            s = self.slots[v] = len(self.template)
            self.template.append(value)
        return s

    def _link(self, kind: int, v: Value, value, nargs: int = 0) -> int:
        """A slot this program fills with ``value``; other programs fill
        it by ``v``'s name, which must name ``v`` here too."""
        key = (kind, v, nargs)
        s = self.slots.get(key)
        if s is None:
            module = self.owner.module
            table = module.globals if kind == _GLOBAL else module.functions
            if table.get(v.name) is not v:
                self.shareable = False
            s = self._constant(key, value)
            self.links.append((s, kind, v.name, nargs))
        return s

    def _message(self, text: str) -> Callable[[], BaseException]:
        """The error a failed check raises.  Its text names IR values,
        whose names the printed body may not fix: such code is not
        shared."""
        self.shareable = False
        return functools.partial(VMError, text)

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
            return HOLE, self._message(f"cannot evaluate constant {v!r}")
        if isinstance(v, GlobalVariable):
            addr = self.owner.globals.get(v)
            if addr is None:
                self.shareable = False
                return HOLE, lambda: KeyError(v)
            return self._link(_GLOBAL, v, addr), None
        if isinstance(v, Function):
            return self._link(_FUNCTION, v, v), None
        slot = self.slot(v)
        if self._defined(v, block, pos):
            return slot, None
        self.checked.add(slot)
        return slot, self._message(
            f"use of unevaluated value {v.short()} in @{self.fn.name}")

    def _defined(self, v: Value, block: BasicBlock, pos: int) -> bool:
        """Is ``v`` written in every frame that reaches ``pos`` of
        ``block``?"""
        dt = self.dt
        if not dt.is_reachable(block):
            return False  # never runs; stay exact anyway
        index = self.args.get(v)
        if index is not None:
            return index < self.nargs
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

    def run(self) -> Tuple[Code, list]:
        """Decode every block, then generate its runs: the code, and
        this program's template."""
        entry = self.block_ops(self.entry_block)
        for bb in self.fn.blocks:
            self.block_ops(bb)
        pending = self._pending
        done = 0
        while done < len(pending):  # edges may add blocks
            bb = pending[done]
            done += 1
            decoded = [self.bind_cost(inst, self.decode(inst, bb, pos))
                       for pos, inst in enumerate(bb.instructions)]
            starts = {self.nphis.get(bb, 0)}  # where edges enter
            if bb is self.entry_block:
                starts.add(0)
            self.runs[bb] = _split(decoded, starts, self.ops[bb])
        loops = self.loops()
        for bb, runs in self.runs.items():
            ops = self.ops[bb]
            for start, (stmts, end) in runs.items():
                stmts = self.thread(bb, stmts, end, loops)
                # the run's function is generated on first interpreter
                # entry (Code.make_runs)
                ops[start] = (FUSED, len(stmts), None, stmts, [], [])
        loops = tuple(
            (self.ops[header], self.nphis[header],
             tuple((self.ops[bb], self.runs[bb][self.nphis[bb]][0])
                   for bb in blocks))
            for header, blocks in loops.items())
        arg_slots = tuple(self.slot(a) for a in self.fn.args[:self.nargs])
        base = list(self.template)
        for slot, *_ in self.links:
            if slot is not None:
                base[slot] = None  # each program binds its own
        code = Code(base, tuple(self.links), arg_slots, entry,
                    list(self.ops.values()), loops, frozenset(self.checked))
        return code, self.template

    def loops(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """The innermost natural loops whose blocks hold nothing but
        statements, each by its header: its blocks, the header's first.
        Each one runs as a LOOP op, so a JUMP into its header is not
        threaded: it enters the LOOP op."""
        info = LoopInfo(self.fn, self.dt)
        loops = {}
        for loop in info.innermost():
            header = loop.header
            blocks = [header] + [bb for bb in loop.body_in_layout_order()
                                 if bb is not header]
            if header is not self.entry_block \
                    and all(self._whole(bb) for bb in blocks):
                loops[header] = blocks
        info.release()
        return loops

    def _whole(self, bb: BasicBlock) -> bool:
        """Is ``bb`` one run of statements, from its phis to its BR or
        JUMP?"""
        start = self.nphis[bb]
        runs = self.runs.get(bb, {})
        return list(runs) == [start] \
            and runs[start][1] == len(bb.instructions) \
            and runs[start][0][-1][0] != PLAIN

    def thread(self, bb: BasicBlock, stmts: tuple, end: int,
               loops: dict) -> tuple:
        """A run ending in a JUMP, followed by the run the JUMP enters
        when that one runs to its block's BR or JUMP and is not the
        header of one of ``loops``: the JUMP keeps its cost and phi
        moves, and the target's ops follow in the same dispatch.  One
        level only: the target's own JUMP returns."""
        if stmts[-1][0] != JUMP:
            return stmts
        moves, consts, target = self.jumps[bb, end - 1]
        if target in loops:
            return stmts
        entered = self.runs.get(target, {}).get(self.nphis.get(target, 0))
        if entered is None or entered[0][-1][0] == PLAIN:
            return stmts
        return (stmts[:-1] + ((PLAIN, stmts[-1][1], moves, consts),)
                + entered[0])

    def bind_cost(self, inst: Instruction, op: tuple) -> tuple:
        """``op`` or the statement ``(kind, cost, source, constants)``
        with the cost table's cost; an opcode the table lacks becomes a
        PRICED op, which runs a CALL, RET or ALLOCA as a SLOW op."""
        key = inst.op if isinstance(inst, BinaryInst) else inst.opcode
        cost = self.owner.costs.get(key)
        if cost is None:
            if op[0] in _STATEMENTS:
                step = generate(((op[0], None) + op[2:],))
                return (PRICED, 0.0, key, (PLAIN, 0.0, step))
            dest = op[3] if op[0] == SLOW else SINK
            return (PRICED, 0.0, key, (SLOW, 0.0, _handler(op), dest))
        return (op[0], cost) + op[2:]

    # -- edges ---------------------------------------------------------------
    def moves(self, source: BasicBlock, target: BasicBlock, k) -> str:
        """The target's phi moves on taking the CFG edge."""
        end = len(source.instructions)
        reads: List[Tuple[int, Fail]] = []
        dests: List[int] = []
        for phi in target.phis():
            v = phi.incoming_for_block(source)
            if v is None:
                reads.append((HOLE, self._message(
                    f"phi {phi.short()} has no incoming for {source.name}")))
            else:
                reads.append(self.read(v, source, end))
            dests.append(self.slot(phi))
        return _moves(reads, dests, k)

    def edge(self, source: BasicBlock, target: BasicBlock, k) -> str:
        """Taking the CFG edge: the target's phi moves, then the return
        of ``(target ops, start index)``."""
        return (self.moves(source, target, k) + "return cycles, "
                + k((self.block_ops(target), len(target.phis()))))

    # -- instructions ----------------------------------------------------------
    def decode(self, inst: Instruction, bb: BasicBlock, pos: int) -> tuple:
        """The op for ``inst``: ``(SLOW, None, h, dest)``, a CALL, RET or
        ALLOCA op, or the statement ``(PLAIN | BR | JUMP, None, source,
        constants)`` (cost not yet bound)."""
        reads: List[Tuple[int, Fail]] = []
        consts: list = []

        def rd(v: Value) -> int:
            s, fail = self.read(v, bb, pos)
            if fail is not None:
                reads.append((s, fail))
            return s

        def k(value) -> str:
            consts.append(value)
            return f"${len(consts) - 1}"

        cls = inst.__class__
        src = None
        if cls is CallInst:
            src = self._intrinsic(inst, rd)
        if src is not None:
            kind = PLAIN
        elif cls in _OP_DECODERS:
            op = _OP_DECODERS[cls](self, inst, rd)
            if reads:  # checked before the op runs
                return (SLOW, None, _checked_slow(_handler(op), reads),
                        op[3] if op[0] == SLOW else SINK)
            return op
        elif cls is BranchInst:
            if not inst.is_conditional:
                target = inst.targets[0]
                moves = self.moves(bb, target, k)
                self.jumps[bb, pos] = (moves, tuple(consts), target)
                edge = k((self.block_ops(target), len(target.phis())))
                return (JUMP, None, f"{moves}return cycles, {edge}",
                        tuple(consts))
            kind = BR
            c = rd(inst.condition)
            taken = self.edge(bb, inst.targets[0], k)
            src = (f"if regs[{c}]:\n" + _indent(taken) + "\nelse:\n"
                   + _indent(self.edge(bb, inst.targets[1], k)))
        elif cls is SelectInst:
            return (PLAIN, None, self._select(inst, bb, pos, k),
                    tuple(consts))
        else:
            kind = PLAIN
            if cls in _PLAIN_DECODERS:
                src = _PLAIN_DECODERS[cls](inst, rd, self.dest(inst), k)
            elif cls is PhiInst:
                src = ""  # block-head phis are assigned by edges
            elif cls is UnreachableInst:
                src = "raise UndefinedBehavior('executed unreachable')"
            else:
                src = f"raise VMError({f'cannot interpret {inst.opcode}'!r})"
        checks = "".join(f"if regs[{s}] is UNSET:\n    raise {k(fail)}()\n"
                         for s, fail in reads)
        return (kind, None, checks + src, tuple(consts))

    def _intrinsic(self, inst: CallInst, rd) -> Optional[str]:
        """A call to a declared pure intrinsic that the intrinsic table
        prices, as a statement: after the call's cost it charges the
        intrinsic's, unscaled, as the runtime does.  None for any other
        call, which stays a runtime call (an unpriced intrinsic then
        reaches :meth:`CostModel.of_intrinsic`)."""
        callee = inst.callee
        declared = isinstance(callee, Function)
        if declared and not callee.is_declaration:
            return None
        name = callee.name if declared else callee
        pure = PURE_INTRINSICS.get(name)
        cost = self.owner.intrinsic_costs.get(name)
        if pure is None or cost is None or len(inst.operands) < pure[0]:
            return None
        if declared:  # code that calls the runtime's sqrt is not shared
            # with a program that defines its own
            self.links.append((None, _RUNTIME, name, 0))
        args = [rd(a) for a in inst.operands]
        xs = [f"x{i}" for i in range(pure[0])]
        return ("".join(f"{x} = regs[{a}]\n" for x, a in zip(xs, args))
                + f"cycles += {cost!r}\n"
                + f"regs[{self.dest(inst)}] = " + pure[1].format(*xs))

    def _select(self, inst: SelectInst, bb: BasicBlock, pos: int, k) -> str:
        (c, cf), (t, tf), (f, ff) = (self.read(v, bb, pos)
                                     for v in inst.operands)
        d = self.dest(inst)
        if cf is None and tf is None and ff is None:
            return f"regs[{d}] = regs[{t}] if regs[{c}] else regs[{f}]"

        def check(s, fail):  # only the chosen value is read
            if fail is None:
                return ""
            return f"if regs[{s}] is UNSET:\n    raise {k(fail)}()\n"
        return (check(c, cf) + f"if regs[{c}]:\n"
                + _indent(check(t, tf) + f"regs[{d}] = regs[{t}]")
                + "\nelse:\n"
                + _indent(check(f, ff) + f"regs[{d}] = regs[{f}]"))


def _indent(src: str) -> str:
    return "    " + src.replace("\n", "\n    ")


def _moves(reads, dests, k) -> str:
    """Statements assigning phi slots ``dests`` from ``reads`` in
    parallel."""
    srcs = [s for s, _ in reads]
    if all(f is None for _, f in reads) and not set(srcs) & set(dests):
        # no phi reads another phi of the block: assign in order
        return "".join(f"regs[{d}] = regs[{s}]\n"
                       for d, s in zip(dests, srcs))
    out = []
    for i, (s, fail) in enumerate(reads):
        out.append(f"m{i} = regs[{s}]\n")
        if fail is not None:
            out.append(f"if m{i} is UNSET:\n    raise {k(fail)}()\n")
    out += [f"regs[{d}] = m{i}\n" for i, d in enumerate(dests)]
    return "".join(out)


def _split(decoded: list, starts: set, ops: list) -> Dict[int, tuple]:
    """Lay out a block's op list ``ops`` from its decoded ops and
    statements: every op that is not a statement at its index, and each
    run of statements that can be entered (at ``starts``, or right after
    such an op), ending at the next such op or after a BR or JUMP.  Returns the runs, ``start -> (statements, end)``; the caller
    puts each one's FUSED op at its start.  Indices inside a run are
    never dispatched and hold None."""
    ops.extend([None] * len(decoded))
    for i, op in enumerate(decoded):
        if op[0] not in _STATEMENTS:
            ops[i] = op
            starts.add(i + 1)
    runs: Dict[int, tuple] = {}
    for start in sorted(starts, reverse=True):  # runs end at later starts
        if start >= len(ops) or ops[start] is not None or start in runs:
            continue
        end = start
        while end < len(ops) and ops[end] is None \
                and (end == start or end not in runs):
            end += 1
            if decoded[end - 1][0] != PLAIN:
                break
        runs[start] = (tuple(decoded[start:end]), end)
    return runs


# -- plain ops ------------------------------------------------------------------
#
# Each decoder reads its operands through ``rd`` in the interpreter's
# evaluation order and returns the statements of its op, which name
# constants through ``k``.

def _lanewise(expr: str, count: int, a: int, b: int, d: int) -> str:
    """A vector op: ``expr`` over ``{a}``/``{b}`` once per lane of the
    vectors in slots ``a`` and ``b``, lanes in order."""
    xs = [f"x{i}" for i in range(count)]
    ys = [f"y{i}" for i in range(count)]
    return (f"{', '.join(xs)}, = regs[{a}]\n{', '.join(ys)}, = regs[{b}]\n"
            f"regs[{d}] = ("
            + "".join(expr.format(a=x, b=y) + ", " for x, y in zip(xs, ys))
            + ")")


def _decode_binop(inst, rd, d, k):
    a, b = rd(inst.operands[0]), rd(inst.operands[1])
    ty = inst.type
    if isinstance(ty, VectorType):
        return _lanewise(binop_expr(inst.op, ty.element), ty.count, a, b, d)
    return f"regs[{d}] = " + binop_expr(inst.op, ty).format(
        a=f"regs[{a}]", b=f"regs[{b}]")


def _decode_cmp(inst, rd, d, k):
    a, b = rd(inst.operands[0]), rd(inst.operands[1])
    ty = inst.operands[0].type
    vector = isinstance(ty, VectorType)
    if inst.__class__ is FCmpInst:
        expr = fcmp_expr(inst.pred)
    else:
        bits = ty.element.bits if vector else getattr(ty, "bits", 64)
        expr = icmp_expr(inst.pred, bits)
    if vector:
        return _lanewise(expr, ty.count, a, b, d)
    return f"regs[{d}] = " + expr.format(a=f"regs[{a}]", b=f"regs[{b}]")


def _decode_load(inst, rd, d, k):
    p = rd(inst.pointer)
    check, value = load_code(inst.type, k)
    return f"a = regs[{p}]\n{check}regs[{d}] = {value}"


def _decode_store(inst, rd, d, k):
    p = rd(inst.pointer)
    v = rd(inst.value)
    return f"a = regs[{p}]\nv = regs[{v}]\n" + store_code(inst.value.type, k)


def _decode_gep(inst, rd, d, k):
    p = rd(inst.pointer)
    # fold constant indices and struct fields into one byte offset;
    # each variable index contributes slot value * scale
    ty: Type = inst.pointer.type.pointee
    const = 0
    terms: List[Tuple[int, int]] = []
    for i, idx in enumerate(inst.indices):
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
            return f"regs[{d}] = {k(_generic_gep(inst, rd, p))}(regs)"
        if isinstance(idx, ConstantInt):
            const += idx.value * scale
        else:
            terms.append((rd(idx), scale))
    if not inst.indices:
        return f"regs[{d}] = regs[{p}]"
    if len(terms) == 1:
        ((x, s),) = terms
        return f"regs[{d}] = regs[{p}] + regs[{x}] * {s}" + (
            f" + {const}" if const else "")
    return f"regs[{d}] = regs[{p}] + {const}" + "".join(
        f" + regs[{x}] * {s}" for x, s in terms)


def _generic_gep(inst, rd, p):
    """A GEP whose structure is only known at run time (a struct index
    that is not a constant): walk the types as each index is read."""
    idx = tuple(rd(v) for v in inst.indices)
    pointee = inst.pointer.type.pointee

    def gep(regs):
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
        return addr
    return gep


def _decode_cast(inst, rd, d, k):
    s = rd(inst.value)
    op, to, from_ty = inst.op, inst.type, inst.value.type
    if not isinstance(to, VectorType):
        return f"regs[{d}] = " + cast_expr(op, to, from_ty).format(
            v=f"regs[{s}]")

    def scalar(v):  # not a tuple: a scalar source, or an undef vector
        return cast_fn(op, to, from_ty)(v)
    if not isinstance(from_ty, VectorType):
        return f"regs[{d}] = {k(scalar)}(regs[{s}])"
    expr = cast_expr(op, to.element, from_ty.element)
    xs = [f"x{i}" for i in range(from_ty.count)]
    return (f"v = regs[{s}]\nif isinstance(v, tuple):\n"
            f"    {', '.join(xs)}, = v\n"
            f"    regs[{d}] = ("
            + "".join(expr.format(v=x) + ", " for x in xs)
            + f")\nelse:\n    regs[{d}] = {k(scalar)}(v)")


def _decode_splat(inst, rd, d, k):
    s = rd(inst.operands[0])
    return f"regs[{d}] = (regs[{s}],) * {inst.lanes}"


def _lane_check(inst, x: str) -> str:
    """A trap unless lane index ``x`` is one of the vector's lanes."""
    return (f"if not 0 <= {x} < {inst.operands[0].type.count}:\n    raise UndefinedBehavior("
            f"{f'{inst.opcode} index out of range'!r})\n")


def _decode_extract(inst, rd, d, k):
    v, i = rd(inst.operands[0]), rd(inst.operands[1])
    return (f"x = regs[{i}]\n" + _lane_check(inst, "x")
            + f"regs[{d}] = regs[{v}][x]")


def _decode_insert(inst, rd, d, k):
    v, e, i = (rd(x) for x in inst.operands[:3])
    return (f"v = list(regs[{v}])\nx = regs[{i}]\n" + _lane_check(inst, "x")
            + f"v[x] = regs[{e}]\nregs[{d}] = tuple(v)")


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


# -- calls, returns, allocas and slow ops ----------------------------------------
#
# A call to a defined function, a return and an alloca are CALL, RET and
# ALLOCA ops, which the interpreter's loop runs itself.  Ops that touch
# the runtime or the cycle counter run as ``h(machine, frame)`` with the
# machine's counters synced; each advances ``frame.index`` itself (or
# pushes / pops a frame).  A decoder returns the op, cost not yet bound.

def _decode_ret(dec, inst, rd):
    return (RET, None, None if inst.value is None else rd(inst.value))


def _decode_call(dec, inst, rd):
    args = tuple(rd(a) for a in inst.operands)
    d = dec.dest(inst)
    callee = inst.callee
    if isinstance(callee, Function) and not callee.is_declaration:
        # the callee's code is in this program's template
        c = dec._link(_CALL, callee, dec.owner.function(
            callee, min(len(args), len(callee.args))), len(args))
        return (CALL, None, c, args, d)
    if isinstance(callee, str):
        name = callee
    else:
        name = callee.name
        dec.links.append((None, _RUNTIME, name, 0))

    def call_runtime(m, frame):
        regs = frame.regs
        m._call_runtime(frame, name, tuple([regs[s] for s in args]), d)
    return (SLOW, None, call_runtime, d)


def _decode_alloca(dec, inst, rd):
    return (ALLOCA, None, inst.size_bytes(), inst.allocated_type.align(),
            dec.dest(inst))


def _handler(op: tuple) -> Callable:
    """The SLOW handler of ``op``: a CALL, RET or ALLOCA whose operands
    are checked first, or that the cost table does not price."""
    kind = op[0]
    if kind == SLOW:
        return op[2]
    if kind == CALL:
        _, _, c, args, d = op

        def call(m, frame):
            regs = frame.regs
            m._enter(regs[c], tuple([regs[s] for s in args]), d)
        return call
    if kind == RET:
        s = op[2]
        if s is None:
            def ret_void(m, frame):
                m._leave(None)
            return ret_void

        def ret(m, frame):
            m._leave(frame.regs[s])
        return ret
    _, _, size, align, d = op

    def alloca(m, frame):
        frame.regs[d] = m.memory.allocate(size, align)
        frame.index += 1
    return alloca


def _decode_memcpy(dec, inst, rd):
    dst, src, size = rd(inst.dst), rd(inst.src), rd(inst.size)

    def memcpy(m, frame):
        regs = frame.regs
        n = regs[size]
        m.cycles += m._gpu_factor * n / 8.0
        m.memory.copy(regs[dst], regs[src], n)
        frame.index += 1
    return (SLOW, None, memcpy, SINK)


def _decode_memset(dec, inst, rd):
    dst, byte, size = rd(inst.dst), rd(inst.byte), rd(inst.size)

    def memset(m, frame):
        regs = frame.regs
        n = regs[size]
        m.cycles += m._gpu_factor * n / 8.0
        m.memory.fill(regs[dst], regs[byte], n)
        frame.index += 1
    return (SLOW, None, memset, SINK)


_OP_DECODERS = {
    ReturnInst: _decode_ret,
    CallInst: _decode_call,
    AllocaInst: _decode_alloca,
    MemCpyInst: _decode_memcpy,
    MemSetInst: _decode_memset,
}
