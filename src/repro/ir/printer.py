"""Textual IR printer.

The printed form serves three purposes: human inspection, ORAQL's query
dumps (which quote instructions, Fig. 3), and the driver's executable-hash
cache (two compilations producing identical text are "bit-identical
executables" in the paper's sense).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List

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
    ConstantData,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
    UndefValue,
    Value,
)


#: how each literal-like value class (the exact class) renders in
#: operand position; every other value gets a %name from the namer
_LITERALS: Dict[type, Callable[[Value], str]] = {
    ConstantInt: lambda v: str(v.value),
    ConstantFloat: lambda v: f"{v.value!r}",
    ConstantNull: lambda v: "null",
    UndefValue: lambda v: "undef",
    ConstantData: lambda v: v.short(),
    GlobalVariable: lambda v: f"@{v.name}",
    Function: lambda v: f"@{v.name}",
}


class _Namer:
    """Assigns stable %N names to anonymous values within a function and
    per-print metadata numbers (so printed text — and the executable
    hash derived from it — is deterministic across compilations)."""

    def __init__(self):
        #: value id -> operand text (literals included: a value's text
        #: never changes within one print)
        self.names: Dict[int, str] = {}
        #: value id -> "type operand" text
        self.typed_names: Dict[int, str] = {}
        self.counter = 0
        self.used: Dict[str, int] = {}
        self.md: Dict[int, int] = {}

    def md_of(self, node) -> int:
        key = node._id
        if key not in self.md:
            self.md[key] = len(self.md) + 1
        return self.md[key]

    def of(self, v: Value) -> str:
        key = v.id
        name = self.names.get(key)
        if name is not None:
            return name
        literal = _LITERALS.get(v.__class__)
        if literal is not None:
            name = literal(v)
        elif v.name:
            n = self.used.get(v.name, 0)
            self.used[v.name] = n + 1
            name = f"%{v.name}" if n == 0 else f"%{v.name}.{n}"
        else:
            name = f"%{self.counter}"
            self.counter += 1
        self.names[key] = name
        return name

    def typed(self, v: Value) -> str:
        key = v.id
        text = self.typed_names.get(key)
        if text is None:
            text = self.typed_names[key] = f"{v.type} {self.of(v)}"
        return text


def _alloca(inst, n, o, suffix):
    cnt = f", {inst.count}" if inst.count != 1 else ""
    return f"{o(inst)} = alloca {inst.allocated_type}{cnt}"


def _load(inst, n, o, suffix):
    vol = "volatile " if inst.is_volatile else ""
    return (f"{o(inst)} = load {vol}{inst.type}, "
            f"{n.typed(inst.pointer)}, align {inst.type.align()}{suffix}")


def _store(inst, n, o, suffix):
    vol = "volatile " if inst.is_volatile else ""
    return (f"store {vol}{n.typed(inst.value)}, {n.typed(inst.pointer)}, "
            f"align {inst.value.type.align()}{suffix}")


def _gep(inst, n, o, suffix):
    ib = "inbounds " if inst.inbounds else ""
    idx = ", ".join(n.typed(i) for i in inst.indices)
    return (f"{o(inst)} = getelementptr {ib}{inst.pointer.type.pointee}, "
            f"{n.typed(inst.pointer)}, {idx}{suffix}")


def _binop(inst, n, o, suffix):
    return f"{o(inst)} = {inst.op} {n.typed(inst.lhs)}, {o(inst.rhs)}"


def _icmp(inst, n, o, suffix):
    return f"{o(inst)} = icmp {inst.pred} {n.typed(inst.operands[0])}, {o(inst.operands[1])}"


def _fcmp(inst, n, o, suffix):
    return f"{o(inst)} = fcmp {inst.pred} {n.typed(inst.operands[0])}, {o(inst.operands[1])}"


def _cast(inst, n, o, suffix):
    return f"{o(inst)} = {inst.op} {n.typed(inst.value)} to {inst.type}"


def _select(inst, n, o, suffix):
    c, t, f = inst.operands
    return f"{o(inst)} = select {n.typed(c)}, {n.typed(t)}, {n.typed(f)}"


def _phi(inst, n, o, suffix):
    inc = ", ".join(f"[ {o(v)}, {o(b)} ]" for v, b in inst.incoming)
    return f"{o(inst)} = phi {inst.type} {inc}"


def _br(inst, n, o, suffix):
    if inst.is_conditional:
        t, f = inst.targets
        return f"br {n.typed(inst.condition)}, label {o(t)}, label {o(f)}"
    return f"br label {o(inst.targets[0])}"


def _ret(inst, n, o, suffix):
    return f"ret {n.typed(inst.value)}" if inst.value is not None else "ret void"


def _unreachable(inst, n, o, suffix):
    return "unreachable"


def _call(inst, n, o, suffix):
    args = ", ".join(n.typed(a) for a in inst.args)
    callee = inst.callee if isinstance(inst.callee, str) else f"@{inst.callee.name}"
    if inst.type.is_void:
        return f"call void {callee}({args})"
    return f"{o(inst)} = call {inst.type} {callee}({args})"


def _memcpy(inst, n, o, suffix):
    return (f"call void @llvm.memcpy({n.typed(inst.dst)}, "
            f"{n.typed(inst.src)}, {n.typed(inst.size)})")


def _memset(inst, n, o, suffix):
    return (f"call void @llvm.memset({n.typed(inst.dst)}, "
            f"{n.typed(inst.byte)}, {n.typed(inst.size)})")


def _splat(inst, n, o, suffix):
    return f"{o(inst)} = splat {n.typed(inst.operands[0])} x {inst.lanes}"


def _extractelement(inst, n, o, suffix):
    v, i = inst.operands
    return f"{o(inst)} = extractelement {n.typed(v)}, {n.typed(i)}"


def _insertelement(inst, n, o, suffix):
    v, e, i = inst.operands
    return f"{o(inst)} = insertelement {n.typed(v)}, {n.typed(e)}, {n.typed(i)}"


def _generic(inst, n, o, suffix):
    return f"{o(inst)} = {inst.opcode} " + ", ".join(o(x) for x in inst.operands)


#: the formatter of each instruction class, keyed by the exact class
#: (a dict lookup instead of an isinstance chain per instruction)
_FORMATTERS: Dict[type, Callable] = {
    AllocaInst: _alloca,
    LoadInst: _load,
    StoreInst: _store,
    GEPInst: _gep,
    BinaryInst: _binop,
    ICmpInst: _icmp,
    FCmpInst: _fcmp,
    CastInst: _cast,
    SelectInst: _select,
    PhiInst: _phi,
    BranchInst: _br,
    ReturnInst: _ret,
    UnreachableInst: _unreachable,
    CallInst: _call,
    MemCpyInst: _memcpy,
    MemSetInst: _memset,
    ShuffleSplatInst: _splat,
    ExtractElementInst: _extractelement,
    InsertElementInst: _insertelement,
}


def format_instruction(inst: Instruction, namer: _Namer = None) -> str:
    n = namer or _Namer()
    suffix = ""
    if inst.tbaa is not None:
        suffix += f", !tbaa !{n.md_of(inst.tbaa)}"
    if inst.dbg is not None:
        suffix += f", !dbg !{inst.dbg.line}"
    fmt = _FORMATTERS.get(inst.__class__, _generic)
    return fmt(inst, n, n.of, suffix)


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
