"""Byte-addressable memory for the interpreter.

A single flat address space per process image: globals segment, heap,
and per-call stack region, carved out of one growable bytearray.  Scalar
values are marshalled with ``struct``; vectors element-wise.  Accesses
outside allocated regions raise :class:`MemoryTrap` — the behaviour a
miscompiled executable shows as a crash.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Tuple

from ..ir.types import FloatType, IntType, PointerType, Type, VectorType
from .errors import MemoryTrap

NULL = 0
_BASE = 0x1000


def place(brk: int, size: int, align: int) -> Tuple[int, int]:
    """Where the bump allocator puts ``size`` bytes at break ``brk``:
    ``(address, new break)``.  Images that allocate the same sequence
    from a fresh :class:`Memory` get the same addresses, which is what
    lets decoded code pre-fill global addresses once per module."""
    addr = (brk + align - 1) & ~(align - 1)
    return addr, addr + max(1, size)


def _trap(addr: int, size: int) -> MemoryTrap:
    return MemoryTrap(f"access [{addr:#x},+{size}) outside memory")


class Memory:
    """Flat memory with a bump allocator that never frees: a stack slot
    outlives its frame and ``free`` is a no-op, as nothing reads which
    allocations are live.

    The buffer starts at ``capacity`` bytes and doubles whenever an
    allocation needs more; accesses are checked against the break, so
    the buffer's size is never observable.  Programs here use tens of
    kilobytes, so a small start keeps each image (one per MPI rank)
    from holding megabytes it never touches."""

    def __init__(self, capacity: int = 1 << 16):
        self.data = bytearray(capacity)
        self.brk = _BASE

    # -- allocation ------------------------------------------------------
    def allocate(self, size: int, align: int = 8) -> int:
        addr, end = place(self.brk, size, align)
        while end > len(self.data):
            self.data.extend(bytearray(len(self.data)))
        self.brk = end
        return addr

    def check(self, addr: int, size: int) -> None:
        if addr < _BASE or addr + size > self.brk:
            raise _trap(addr, size)

    # -- raw bytes ----------------------------------------------------------
    def read_bytes(self, addr: int, size: int) -> bytes:
        self.check(addr, size)
        return bytes(self.data[addr:addr + size])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self.check(addr, len(payload))
        self.data[addr:addr + len(payload)] = payload

    def copy(self, dst: int, src: int, size: int) -> None:
        self.write_bytes(dst, self.read_bytes(src, size))

    def fill(self, dst: int, byte: int, size: int) -> None:
        self.check(dst, size)
        self.data[dst:dst + size] = bytes([byte & 0xFF]) * size

    # -- typed access ----------------------------------------------------
    def load(self, addr: int, ty: Type):
        return typed_loader(ty)(self, addr)

    def store(self, addr: int, ty: Type, value) -> None:
        typed_storer(ty)(self, addr, value)

    def read_cstring(self, addr: int, limit: int = 4096) -> str:
        out = bytearray()
        for i in range(limit):
            b = self.read_bytes(addr + i, 1)[0]
            if b == 0:
                break
            out.append(b)
        return out.decode("utf-8", errors="replace")

    def write_cstring(self, addr: int, s: str) -> None:
        payload = s.encode() + b"\x00"
        self.write_bytes(addr, payload)


# -- typed access, one source template per type --------------------------------
#
# ``load_code(ty, const)`` / ``store_code(ty, const)`` are the source
# that accesses a ``ty`` at address ``a`` against the image's buffer
# ``data`` and break ``brk``; ``const(value)`` names each constant the
# source uses.  Decoded code inlines them into its generated runs, and
# ``typed_loader(ty)`` / ``typed_storer(ty)`` compile the scalar ones
# into plain functions of a Memory (never bound to one) for the runtime
# and :meth:`Memory.load`.  Each access checks bounds exactly as
# :meth:`Memory.check` does.  A vector that lies wholly inside
# ``[_BASE, brk)`` moves with one ``struct`` call over all its lanes;
# otherwise it goes lane by lane, in order (``typed_loader`` /
# ``typed_storer`` of the vector type), so the lane that traps, and the
# lanes stored before it, are those of one lane at a time.

#: little-endian struct codes for the scalar widths struct can do
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}
_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}

_LOADERS: Dict[Type, Callable] = {}
_STORERS: Dict[Type, Callable] = {}


def _check(size: int) -> str:
    return f"if a < {_BASE} or a + {size} > brk:\n    raise _trap(a, {size})\n"


def _lanes(ty: VectorType, store: bool):
    """``(struct code, int mask or None)`` of one lane of ``ty`` when
    one ``struct`` call over all lanes is exact, else None: i1 lanes
    (loads mask them), widths struct cannot pack, and f32 stores
    (packing may overflow after earlier lanes are stored) go lane by
    lane."""
    el = ty.element
    if isinstance(el, PointerType):
        return "Q", (1 << 64) - 1
    if isinstance(el, FloatType):
        if el.bits == 32:
            return None if store else ("f", None)
        return "d", None
    if isinstance(el, IntType) and el.bits > 1:
        size = el.size()
        code = (_UNSIGNED if store else _SIGNED).get(size)
        return None if code is None else (code, (1 << (size * 8)) - 1)
    return None


def _inside(size: int) -> str:
    return f"{_BASE} <= a and a + {size} <= brk"


def load_code(ty: Type, const: Callable[[object], str]) -> Tuple[str, str]:
    """``(check, value)``: statements that trap unless a ``ty`` lies at
    ``a``, and the expression that then reads it."""
    if isinstance(ty, (IntType, FloatType, PointerType)):
        size = ty.size()
        if isinstance(ty, FloatType):
            code = "f" if ty.bits == 32 else "d"
        elif isinstance(ty, PointerType):
            code = _UNSIGNED[size]
        else:
            code = _SIGNED.get(size)
        if code is None:  # an integer width struct has no code for
            return _check(size), (f"int.from_bytes(data[a:a + {size}], "
                                  f"'little', signed=True)")
        unpack = const(struct.Struct("<" + code).unpack_from)
        i1 = isinstance(ty, IntType) and ty.bits == 1
        return _check(size), f"{unpack}(data, a)[0]" + (" & 1" if i1 else "")
    lanes = f"{const(typed_loader(ty))}(mem, a)"
    if isinstance(ty, VectorType) and _lanes(ty, False) is not None:
        code, _ = _lanes(ty, False)
        unpack = const(struct.Struct(f"<{ty.count}{code}").unpack_from)
        return "", (f"{unpack}(data, a) if {_inside(ty.size())} "
                    f"else {lanes}")
    return "", lanes


def store_code(ty: Type, const: Callable[[object], str]) -> str:
    """Statements that store ``v`` as a ``ty`` at ``a``, or trap."""
    if isinstance(ty, (IntType, PointerType)):
        size = ty.size() if isinstance(ty, IntType) else 8
        mask = (1 << (size * 8)) - 1
        code = _UNSIGNED.get(size)
        if code is None:
            return (f"v = (int(v) & {mask}).to_bytes({size}, 'little')\n"
                    + _check(size) + f"data[a:a + {size}] = v")
        pack_into = const(struct.Struct("<" + code).pack_into)
        return (f"v = int(v) & {mask}\n" + _check(size)
                + f"{pack_into}(data, a, v)")
    if isinstance(ty, FloatType) and ty.bits == 32:
        # packing may overflow, which it must do before the check
        pack = const(struct.Struct("<f").pack)
        return f"v = {pack}(float(v))\n" + _check(4) + "data[a:a + 4] = v"
    if isinstance(ty, FloatType):
        pack_into = const(struct.Struct("<d").pack_into)
        return f"v = float(v)\n" + _check(8) + f"{pack_into}(data, a, v)"
    lanes = f"{const(typed_storer(ty))}(mem, a, v)"
    spec = _lanes(ty, True) if isinstance(ty, VectorType) else None
    if spec is None:
        return lanes
    code, mask = spec
    pack_into = const(struct.Struct(f"<{ty.count}{code}").pack_into)
    inside = _inside(ty.size())
    if mask is None:  # f64: every lane value converts
        return (f"if {inside}:\n    {pack_into}(data, a, *v)\n"
                f"else:\n    {lanes}")
    # int(x) raises on a NaN or infinite lane (a bitcast float vector),
    # which the lane path raises after storing the lanes before it
    x = ", ".join(f"int(v[{i}]) & {mask}" for i in range(ty.count))
    return (f"x = None\nif {inside}:\n"
            f"    try:\n        x = ({x},)\n"
            f"    except (ValueError, OverflowError, TypeError):\n"
            f"        pass\n"
            f"if x is None:\n    {lanes}\n"
            f"else:\n    {pack_into}(data, a, *x)")


def _compile(params: str, body: Callable[[Callable], str]) -> Callable:
    """``def access(params)`` with ``body(const)`` for its statements,
    reading the image's buffer and break first."""
    consts: list = []

    def const(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"
    src = body(const).replace("\n", "\n        ")
    names = ", ".join(f"k{i}" for i in range(len(consts)))
    ns: dict = {}
    exec(f"def make({names}):\n"
         f"    def access({params}):\n"
         f"        data = mem.data\n"
         f"        brk = mem.brk\n"
         f"        {src}\n"
         f"    return access\n", {"_trap": _trap}, ns)
    return ns["make"](*consts)


def typed_loader(ty: Type) -> Callable[[Memory, int], object]:
    fn = _LOADERS.get(ty)
    if fn is None:
        fn = _LOADERS[ty] = _make_loader(ty)
    return fn


def typed_storer(ty: Type) -> Callable[[Memory, int, object], None]:
    fn = _STORERS.get(ty)
    if fn is None:
        fn = _STORERS[ty] = _make_storer(ty)
    return fn


def _make_loader(ty: Type) -> Callable:
    if isinstance(ty, (IntType, FloatType, PointerType)):
        def body(const):
            check, value = load_code(ty, const)
            return f"{check}return {value}"
        return _compile("mem, a", body)
    if isinstance(ty, VectorType):
        lane = typed_loader(ty.element)
        step = ty.element.size()
        count = ty.count

        def load(mem, addr):
            return tuple(lane(mem, addr + i * step) for i in range(count))
        return load

    def load(mem, addr):
        raise MemoryTrap(f"cannot load type {ty}")
    return load


def _make_storer(ty: Type) -> Callable:
    if isinstance(ty, (IntType, FloatType, PointerType)):
        return _compile("mem, a, v", lambda const: store_code(ty, const))
    if isinstance(ty, VectorType):
        lane = typed_storer(ty.element)
        step = ty.element.size()

        def store(mem, addr, value):
            for i, v in enumerate(value):
                lane(mem, addr + i * step, v)
        return store

    def store(mem, addr, value):
        raise MemoryTrap(f"cannot store type {ty}")
    return store
