"""Textual IR printer.

The printed form serves three purposes: human inspection, ORAQL's query
dumps (which quote instructions, Fig. 3), and the driver's executable-hash
cache (two compilations producing identical text are "bit-identical
executables" in the paper's sense).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
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
from .module import Module
from .values import (
    Argument,
    ConstantData,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)


class _Namer:
    """Assigns stable %N names to anonymous values within a function and
    per-print metadata numbers (so printed text — and the executable
    hash derived from it — is deterministic across compilations)."""

    def __init__(self):
        self.names: Dict[int, str] = {}
        self.counter = 0
        self.used: Dict[str, int] = {}
        self.md: Dict[int, int] = {}

    def md_of(self, node) -> int:
        key = node._id
        if key not in self.md:
            self.md[key] = len(self.md) + 1
        return self.md[key]

    def of(self, v: Value) -> str:
        if isinstance(v, ConstantInt):
            return str(v.value)
        if isinstance(v, ConstantFloat):
            return f"{v.value!r}"
        if isinstance(v, ConstantNull):
            return "null"
        if isinstance(v, UndefValue):
            return "undef"
        if isinstance(v, ConstantData):
            return v.short()
        if isinstance(v, (GlobalVariable, Function)):
            return f"@{v.name}"
        key = v.id
        if key not in self.names:
            if v.name:
                n = self.used.get(v.name, 0)
                self.used[v.name] = n + 1
                self.names[key] = f"%{v.name}" if n == 0 else f"%{v.name}.{n}"
            else:
                self.names[key] = f"%{self.counter}"
                self.counter += 1
        return self.names[key]

    def typed(self, v: Value) -> str:
        return f"{v.type} {self.of(v)}"


def format_instruction(inst: Instruction, namer: _Namer = None) -> str:
    n = namer or _Namer()
    o = n.of
    suffix = ""
    if inst.tbaa is not None:
        suffix += f", !tbaa !{n.md_of(inst.tbaa)}"
    if inst.dbg is not None:
        suffix += f", !dbg !{inst.dbg.line}"

    if isinstance(inst, AllocaInst):
        cnt = f", {inst.count}" if inst.count != 1 else ""
        return f"{o(inst)} = alloca {inst.allocated_type}{cnt}"
    if isinstance(inst, LoadInst):
        vol = "volatile " if inst.is_volatile else ""
        return (f"{o(inst)} = load {vol}{inst.type}, "
                f"{n.typed(inst.pointer)}, align {inst.type.align()}{suffix}")
    if isinstance(inst, StoreInst):
        vol = "volatile " if inst.is_volatile else ""
        return (f"store {vol}{n.typed(inst.value)}, {n.typed(inst.pointer)}, "
                f"align {inst.value.type.align()}{suffix}")
    if isinstance(inst, GEPInst):
        ib = "inbounds " if inst.inbounds else ""
        idx = ", ".join(n.typed(i) for i in inst.indices)
        return (f"{o(inst)} = getelementptr {ib}{inst.pointer.type.pointee}, "
                f"{n.typed(inst.pointer)}, {idx}{suffix}")
    if isinstance(inst, BinaryInst):
        return f"{o(inst)} = {inst.op} {n.typed(inst.lhs)}, {o(inst.rhs)}"
    if isinstance(inst, ICmpInst):
        return f"{o(inst)} = icmp {inst.pred} {n.typed(inst.operands[0])}, {o(inst.operands[1])}"
    if isinstance(inst, FCmpInst):
        return f"{o(inst)} = fcmp {inst.pred} {n.typed(inst.operands[0])}, {o(inst.operands[1])}"
    if isinstance(inst, CastInst):
        return f"{o(inst)} = {inst.op} {n.typed(inst.value)} to {inst.type}"
    if isinstance(inst, SelectInst):
        c, t, f = inst.operands
        return f"{o(inst)} = select {n.typed(c)}, {n.typed(t)}, {n.typed(f)}"
    if isinstance(inst, PhiInst):
        inc = ", ".join(f"[ {o(v)}, {o(b)} ]" for v, b in inst.incoming)
        return f"{o(inst)} = phi {inst.type} {inc}"
    if isinstance(inst, BranchInst):
        if inst.is_conditional:
            t, f = inst.targets
            return f"br {n.typed(inst.condition)}, label {o(t)}, label {o(f)}"
        return f"br label {o(inst.targets[0])}"
    if isinstance(inst, ReturnInst):
        return f"ret {n.typed(inst.value)}" if inst.value is not None else "ret void"
    if isinstance(inst, UnreachableInst):
        return "unreachable"
    if isinstance(inst, CallInst):
        args = ", ".join(n.typed(a) for a in inst.args)
        callee = inst.callee if isinstance(inst.callee, str) else f"@{inst.callee.name}"
        if inst.type.is_void:
            return f"call void {callee}({args})"
        return f"{o(inst)} = call {inst.type} {callee}({args})"
    if isinstance(inst, MemCpyInst):
        return (f"call void @llvm.memcpy({n.typed(inst.dst)}, "
                f"{n.typed(inst.src)}, {n.typed(inst.size)})")
    if isinstance(inst, MemSetInst):
        return (f"call void @llvm.memset({n.typed(inst.dst)}, "
                f"{n.typed(inst.byte)}, {n.typed(inst.size)})")
    if isinstance(inst, ShuffleSplatInst):
        return f"{o(inst)} = splat {n.typed(inst.operands[0])} x {inst.lanes}"
    if isinstance(inst, ExtractElementInst):
        v, i = inst.operands
        return f"{o(inst)} = extractelement {n.typed(v)}, {n.typed(i)}"
    if isinstance(inst, InsertElementInst):
        v, e, i = inst.operands
        return f"{o(inst)} = insertelement {n.typed(v)}, {n.typed(e)}, {n.typed(i)}"
    return f"{o(inst)} = {inst.opcode} " + ", ".join(o(x) for x in inst.operands)


def print_function(fn: Function) -> str:
    namer = _Namer()
    params = ", ".join(
        f"{a.type} {' '.join(sorted(a.attrs)) + ' ' if a.attrs else ''}{namer.of(a)}"
        for a in fn.args
    )
    attrs = (" " + " ".join(sorted(fn.attrs))) if fn.attrs else ""
    tgt = f' target "{fn.target}"' if fn.target != "host" else ""
    if fn.is_declaration:
        return f"declare {fn.return_type} @{fn.name}({params})\n"
    lines = [f"define {fn.return_type} @{fn.name}({params}){attrs}{tgt} {{"]
    for bb in fn.blocks:
        label = namer.of(bb)[1:]
        preds = ""
        lines.append(f"{label}:{preds}")
        for inst in bb.instructions:
            lines.append(f"  {format_instruction(inst, namer)}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _header_parts(mod: Module) -> List[str]:
    parts: List[str] = [f"; ModuleID = '{mod.name}'\n"]
    for name, st in sorted(mod.struct_types.items()):
        fields = ", ".join(str(f) for f in st.fields)
        parts.append(f"%struct.{name} = type {{ {fields} }}\n")
    for name, gv in mod.globals.items():
        const = "constant" if gv.is_constant else "global"
        init = gv.initializer.short() if gv.initializer is not None else "zeroinitializer"
        parts.append(f"@{name} = {const} {gv.value_type} {init}\n")
    return parts


def print_module_header(mod: Module) -> str:
    """The module's printed form minus the function bodies: ModuleID,
    struct types, globals.  The executable hash is this text followed
    by the per-function body hashes, so each body is rendered once —
    for its ``function_hash``, which also keys the codegen cache."""
    return "\n".join(_header_parts(mod))


def print_module(mod: Module) -> str:
    parts = _header_parts(mod)
    for fn in mod.functions.values():
        parts.append(print_function(fn))
    return "\n".join(parts)


def module_hash(mod: Module) -> str:
    """Content hash of the module's printed form (the driver's
    "bit-identical executable" test, paper §IV-B)."""
    return hashlib.sha256(print_module(mod).encode()).hexdigest()


def function_hash(fn: Function) -> str:
    """Content hash of one function's printed form.  ``print_function``
    uses a fresh namer per function, so the text — and therefore this
    hash — is self-contained: two structurally identical bodies hash
    equal regardless of the surrounding module."""
    return hashlib.sha256(print_function(fn).encode()).hexdigest()
