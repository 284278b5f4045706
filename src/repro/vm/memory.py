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
    """Flat memory with a bump allocator and allocation tracking.

    The buffer starts at ``capacity`` bytes and doubles whenever an
    allocation needs more; accesses are checked against the break, so
    the buffer's size is never observable.  Programs here use tens of
    kilobytes, so a small start keeps each image (one per MPI rank)
    from holding megabytes it never touches."""

    def __init__(self, capacity: int = 1 << 16):
        self.data = bytearray(capacity)
        self.brk = _BASE
        #: live allocations, start address -> size
        self.allocations: Dict[int, int] = {}

    # -- allocation ------------------------------------------------------
    def allocate(self, size: int, align: int = 8) -> int:
        addr, end = place(self.brk, size, align)
        while end > len(self.data):
            self.data.extend(bytearray(len(self.data)))
        self.brk = end
        self.allocations[addr] = end - addr
        return addr

    def free(self, addr: int) -> None:
        """Drop an allocation (``free``, or a stack slot on return)."""
        self.allocations.pop(addr, None)

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


# -- typed access, bound once per type ------------------------------------------
#
# ``typed_loader(ty)`` / ``typed_storer(ty)`` return plain functions of a
# Memory (never bound to one), so decoded code can hold them and be
# shared by every image.  Each access checks bounds exactly as
# :meth:`Memory.check` does; a vector checks lane by lane, in order.

#: little-endian struct codes for the scalar widths struct can do
_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}
_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}

_LOADERS: Dict[Type, Callable] = {}
_STORERS: Dict[Type, Callable] = {}


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
        size = ty.size()
        if isinstance(ty, FloatType):
            code = "f" if ty.bits == 32 else "d"
        elif isinstance(ty, PointerType):
            code = _UNSIGNED[size]
        else:
            code = _SIGNED.get(size)
        if code is None:  # an integer width struct has no code for
            def load(mem, addr):
                if addr < _BASE or addr + size > mem.brk:
                    raise _trap(addr, size)
                return int.from_bytes(mem.data[addr:addr + size], "little",
                                      signed=True)
            return load
        unpack = struct.Struct("<" + code).unpack_from
        if isinstance(ty, IntType) and ty.bits == 1:
            def load(mem, addr):
                if addr < _BASE or addr + size > mem.brk:
                    raise _trap(addr, size)
                return unpack(mem.data, addr)[0] & 1
            return load

        def load(mem, addr):
            if addr < _BASE or addr + size > mem.brk:
                raise _trap(addr, size)
            return unpack(mem.data, addr)[0]
        return load
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
    if isinstance(ty, (IntType, PointerType)):
        size = ty.size() if isinstance(ty, IntType) else 8
        mask = (1 << (size * 8)) - 1
        code = _UNSIGNED.get(size)
        if code is None:
            def store(mem, addr, value):
                payload = (int(value) & mask).to_bytes(size, "little")
                if addr < _BASE or addr + size > mem.brk:
                    raise _trap(addr, size)
                mem.data[addr:addr + size] = payload
            return store
        pack_into = struct.Struct("<" + code).pack_into

        def store(mem, addr, value):
            v = int(value) & mask
            if addr < _BASE or addr + size > mem.brk:
                raise _trap(addr, size)
            pack_into(mem.data, addr, v)
        return store
    if isinstance(ty, FloatType):
        size = ty.size()
        pack = struct.Struct("<f" if ty.bits == 32 else "<d").pack

        def store(mem, addr, value):
            payload = pack(float(value))
            if addr < _BASE or addr + size > mem.brk:
                raise _trap(addr, size)
            mem.data[addr:addr + size] = payload
        return store
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
