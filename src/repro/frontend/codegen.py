"""MiniC → IR code generation.

Responsibilities beyond plain lowering, all of which feed the AA stack:

* **TBAA**: every load/store of a typed lvalue carries a ``!tbaa`` access
  tag (strict aliasing, on by default as with ``-O2``);
* **restrict**: ``restrict`` pointer parameters become ``noalias``
  arguments *and* get alias-scope metadata on accesses based on them
  (the post-inlining form clang emits);
* **OpenMP**: ``#pragma omp parallel for`` outlines the loop body into a
  ``.omp_outlined..N`` function taking a context struct of captured
  variable addresses — the indirection (load the data pointer from the
  context, then access through it) is exactly the ``dptr`` pattern whose
  queries dominate the paper's OpenMP configurations (Fig. 3);
* **CUDA**: ``__global__`` functions get ``target="nvptx"`` and the
  ``kernel`` attribute; ``launch(k, grid, block, ...)`` lowers to the
  ``cuda_launch`` runtime shim.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..ir import (
    AliasScope,
    AllocaInst,
    ArrayType,
    BasicBlock,
    CastInst,
    ConstantData,
    ConstantFloat,
    ConstantInt,
    DebugLoc,
    F32,
    F64,
    Function,
    FunctionType,
    I1,
    I8,
    I64,
    IRBuilder,
    IntType,
    FloatType,
    Module,
    PointerType,
    ScopedAliasMD,
    StructType,
    TBAANode,
    Type,
    VOID,
    Value,
    ptr,
)
from .ast_nodes import (
    Assign,
    Binary,
    Block,
    Break,
    Call,
    CastExpr,
    Continue,
    CType,
    DeclStmt,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    FunctionDef,
    GlobalDecl,
    Ident,
    If,
    Index,
    IntLit,
    Member,
    Return,
    SizeofExpr,
    Stmt,
    StrLit,
    StructDef,
    Ternary,
    TranslationUnit,
    Unary,
    While,
)
from .parser import parse

#: builtins forwarded to the runtime; name -> (ret IR type, pure)
BUILTINS: Dict[str, Tuple[Type, bool]] = {
    "printf": (I64, False),
    "sqrt": (F64, True),
    "fabs": (F64, True),
    "exp": (F64, True),
    "log": (F64, True),
    "pow": (F64, True),
    "sin": (F64, True),
    "cos": (F64, True),
    "floor": (F64, True),
    "ceil": (F64, True),
    "fmin": (F64, True),
    "fmax": (F64, True),
    "malloc": (ptr(I8), False),
    "free": (VOID, False),
    "clock_cycles": (I64, False),
    "wtime": (F64, False),
    "abort": (VOID, False),
    "exit": (VOID, False),
    "omp_get_max_threads": (I64, False),
    "omp_get_num_threads": (I64, False),
    "cuda_thread_id": (I64, False),
    "cuda_num_threads": (I64, False),
    "cuda_device_synchronize": (VOID, False),
    "mpi_comm_rank": (I64, False),
    "mpi_comm_size": (I64, False),
    "mpi_barrier": (VOID, False),
    "mpi_allreduce_sum_f64": (F64, False),
    "mpi_allreduce_max_f64": (F64, False),
    "mpi_allreduce_min_f64": (F64, False),
}


class CodegenError(Exception):
    pass


class FrontendOptions:
    """Per-compilation frontend switches (a slice of the paper's CFLAGS)."""

    def __init__(self, strict_aliasing: bool = True,
                 restrict_scopes: bool = True,
                 debug_info: bool = True):
        self.strict_aliasing = strict_aliasing
        self.restrict_scopes = restrict_scopes
        self.debug_info = debug_info


class CodeGen:
    """Module-level code generator; one instance per translation unit."""

    def __init__(self, module: Optional[Module] = None,
                 options: Optional[FrontendOptions] = None,
                 filename: str = "<minic>"):
        self.module = module or Module(filename)
        self.options = options or FrontendOptions()
        self.filename = filename
        self._outline_count = itertools.count()
        self._tbaa_cache: Dict[str, TBAANode] = {}

    # -- entry point -----------------------------------------------------
    def generate(self, tu: TranslationUnit) -> Module:
        for sd in tu.structs:
            self._declare_struct(sd)
        for gd in tu.globals:
            self._emit_global(gd)
        # declare all functions first (forward references)
        for fd in tu.functions:
            self._declare_function(fd)
        for fd in tu.functions:
            if fd.body is not None:
                FnEmitter(self, fd).emit()
        return self.module

    # -- types -----------------------------------------------------------
    def ir_type(self, cty: CType) -> Type:
        base = {
            "void": VOID, "int": I64, "long": I64, "double": F64,
            "float": F32, "char": I8,
        }.get(cty.base)
        if base is None:
            if cty.base.startswith("struct "):
                name = cty.base[len("struct "):]
                base = self.module.struct_types.get(name)
                if base is None:
                    raise CodegenError(f"unknown struct {name}")
            else:
                raise CodegenError(f"unknown type {cty.base}")
        ty: Type = base
        for dim in reversed(cty.array_dims):
            ty = ArrayType(ty, dim)
        for _ in range(cty.pointers):
            ty = ptr(ty)
        return ty

    def _declare_struct(self, sd: StructDef) -> None:
        fields = [self.ir_type(p.type) for p in sd.fields]
        self.module.add_struct_type(sd.name, fields,
                                    [p.name for p in sd.fields])

    # -- TBAA --------------------------------------------------------------
    def tbaa_for(self, cty: CType) -> Optional[TBAANode]:
        if not self.options.strict_aliasing:
            return None
        if cty.pointers or cty.array_dims and cty.pointers:
            pass
        if cty.pointers:
            name = "any pointer"
        elif cty.base in ("int", "long"):
            name = "long"
        elif cty.base == "double":
            name = "double"
        elif cty.base == "float":
            name = "float"
        elif cty.base == "char":
            return self.module.tbaa.char
        elif cty.base.startswith("struct"):
            return None  # whole-aggregate accesses are not emitted
        else:
            return None
        node = self._tbaa_cache.get(name)
        if node is None:
            node = self.module.tbaa.scalar(name)
            self._tbaa_cache[name] = node
        return node

    def tbaa_field(self, struct_name: str, field_name: str,
                   field_cty: CType) -> Optional[TBAANode]:
        if not self.options.strict_aliasing:
            return None
        scalar = self.tbaa_for(field_cty)
        if scalar is None:
            return None
        return self.module.tbaa.struct_field(struct_name, field_name, scalar)

    # -- globals -----------------------------------------------------------
    def _emit_global(self, gd: GlobalDecl) -> None:
        ty = self.ir_type(gd.type)
        init = None
        if gd.init is not None:
            init = self._const_init(gd.init, ty)
        elif gd.init_list is not None:
            values = [self._const_value(e) for e in gd.init_list]
            if isinstance(ty, ArrayType):
                while len(values) < ty.count:
                    values.append(0)
            init = ConstantData(ty, tuple(values))
        self.module.add_global(ty, gd.name, init, is_constant=gd.type.const)

    def _const_value(self, e: Expr):
        if isinstance(e, IntLit):
            return e.value
        if isinstance(e, FloatLit):
            return e.value
        if isinstance(e, Unary) and e.op == "-":
            return -self._const_value(e.operand)
        raise CodegenError(f"unsupported constant initializer at line {e.line}")

    def _const_init(self, e: Expr, ty: Type):
        v = self._const_value(e)
        if isinstance(ty, IntType):
            return ConstantInt(ty, int(v))
        if isinstance(ty, FloatType):
            return ConstantFloat(ty, float(v))
        raise CodegenError("bad scalar initializer")

    # -- functions ----------------------------------------------------------
    def _declare_function(self, fd: FunctionDef) -> None:
        fn = self.module.functions.get(fd.name)
        if fn is not None and (fd.body is None or not fn.is_declaration):
            return
        ftype = FunctionType(self.ir_type(fd.ret),
                             [self.ir_type(p.type) for p in fd.params])
        if fn is None:
            fn = self.module.add_function(
                ftype, fd.name, [p.name for p in fd.params],
                target="nvptx" if fd.is_kernel else "host")
            fn.source_file = self.filename
            if fd.is_kernel:
                fn.attrs.add("kernel")
        elif fn.ftype != ftype:
            raise CodegenError(f"line {fd.line}: definition of "
                               f"{fd.name}() does not match its prototype")
        fn.is_declaration = fd.body is None
        # a definition after its prototype names and marks the arguments
        for arg, p in zip(fn.args, fd.params):
            arg.name = p.name
            if p.type.restrict:
                arg.attrs.add("noalias")
            else:
                arg.attrs.discard("noalias")

    def next_outline_id(self) -> int:
        return next(self._outline_count)


class _LValue:
    """Address + element info for an assignable expression."""

    __slots__ = ("addr", "cty", "tbaa", "base_param")

    def __init__(self, addr: Value, cty: CType, tbaa: Optional[TBAANode],
                 base_param: Optional[str] = None):
        self.addr = addr
        self.cty = cty
        self.tbaa = tbaa
        self.base_param = base_param  # restrict-scope attribution


class FnEmitter:
    """Emits one function body (and any outlined OpenMP regions)."""

    def __init__(self, cg: CodeGen, fd: FunctionDef,
                 fn: Optional[Function] = None,
                 outer_scopes: Optional[List[AliasScope]] = None):
        self.cg = cg
        self.module = cg.module
        self.fd = fd
        self.fn = fn or self.module.get_function(fd.name)
        self.b = IRBuilder()
        #: name -> (_LValue-producing storage info)
        self.scope: Dict[str, Tuple[Value, CType]] = {}
        self.break_targets: List[BasicBlock] = []
        self.continue_targets: List[BasicBlock] = []
        #: restrict scopes: param name -> AliasScope
        self.restrict_scopes: Dict[str, AliasScope] = {}

    # -- helpers -----------------------------------------------------------
    def dbg(self, line: int) -> Optional[DebugLoc]:
        if not self.cg.options.debug_info or line <= 0:
            return None
        return DebugLoc(self.cg.filename, line)

    def ir_type(self, cty: CType) -> Type:
        return self.cg.ir_type(cty)

    def create_alloca(self, ty: Type, name: str):
        """Create a stack slot in the *entry* block (clang's behaviour),
        regardless of where the builder currently is, so mem2reg sees it."""
        entry = self.fn.entry
        inst = AllocaInst(ty, 1, name)
        idx = 0
        while idx < len(entry.instructions) and isinstance(
                entry.instructions[idx], AllocaInst):
            idx += 1
        inst.parent = entry
        entry.instructions.insert(idx, inst)
        return inst

    def scoped_for(self, base_param: Optional[str]) -> Optional[ScopedAliasMD]:
        if not self.cg.options.restrict_scopes or not self.restrict_scopes:
            return None
        if base_param is not None and base_param in self.restrict_scopes:
            own = self.restrict_scopes[base_param]
            others = tuple(s for n, s in sorted(self.restrict_scopes.items())
                           if n != base_param)
            return ScopedAliasMD((own,), others)
        # not based on any restrict pointer: cannot touch their objects
        return ScopedAliasMD((), tuple(
            s for _, s in sorted(self.restrict_scopes.items())))

    # -- entry -------------------------------------------------------------
    def emit(self) -> Function:
        fn = self.fn
        entry = fn.add_block("entry")
        self.b.position_at_end(entry)
        for p in self.fd.params:
            if p.type.restrict:
                self.restrict_scopes[p.name] = AliasScope(p.name, fn.name)
        # spill parameters to stack slots (mem2reg re-promotes)
        for arg, p in zip(fn.args, self.fd.params):
            slot = self.b.alloca(arg.type, name=f"{p.name}.addr")
            self.b.store(arg, slot)
            self.scope[p.name] = (slot, p.type)
        self.emit_block(self.fd.body)
        # implicit return
        if self.b.block.terminator is None:
            if fn.return_type.is_void:
                self.b.ret()
            elif isinstance(fn.return_type, IntType):
                self.b.ret(ConstantInt(fn.return_type, 0))
            else:
                self.b.ret(ConstantFloat(fn.return_type, 0.0))
        # drop unterminated empty joins
        for bb in list(fn.blocks):
            if bb.terminator is None:
                self.b.position_at_end(bb)
                if fn.return_type.is_void:
                    self.b.ret()
                elif isinstance(fn.return_type, IntType):
                    self.b.ret(ConstantInt(fn.return_type, 0))
                else:
                    self.b.ret(ConstantFloat(fn.return_type, 0.0))
        return fn

    # -- statements ----------------------------------------------------------
    def emit_block(self, block: Block) -> None:
        saved = dict(self.scope)
        for stmt in block.statements:
            self.emit_stmt(stmt)
            if self.b.block.terminator is not None:
                break  # unreachable code after return/break
        self.scope = saved

    def emit_stmt(self, stmt: Stmt) -> None:
        self.b.default_dbg = self.dbg(stmt.line)
        if isinstance(stmt, Block):
            self.emit_block(stmt)
        elif isinstance(stmt, DeclStmt):
            self.emit_decl(stmt)
        elif isinstance(stmt, ExprStmt):
            self.eval_expr(stmt.expr)
        elif isinstance(stmt, If):
            self.emit_if(stmt)
        elif isinstance(stmt, While):
            self.emit_while(stmt)
        elif isinstance(stmt, For):
            if stmt.omp_parallel:
                self.emit_omp_for(stmt)
            else:
                self.emit_for(stmt)
        elif isinstance(stmt, Return):
            if stmt.value is None:
                self.b.ret()
            else:
                v, cty = self.eval_expr(stmt.value)
                v = self.convert(v, cty, self._ret_ctype())
                self.b.ret(v)
        elif isinstance(stmt, Break):
            self.b.br(self.break_targets[-1])
        elif isinstance(stmt, Continue):
            self.b.br(self.continue_targets[-1])
        else:
            raise CodegenError(f"unhandled statement {stmt}")

    def _ret_ctype(self) -> CType:
        return self.fd.ret

    def emit_decl(self, stmt: DeclStmt) -> None:
        ty = self.ir_type(stmt.type)
        slot = self.create_alloca(ty, stmt.name)
        self.scope[stmt.name] = (slot, stmt.type)
        if stmt.init is not None:
            v, cty = self.eval_expr(stmt.init)
            v = self.convert(v, cty, stmt.type)
            st = self.b.store(v, slot, tbaa=self.cg.tbaa_for(stmt.type))
            st.scoped = self.scoped_for(None)
        elif stmt.init_list is not None:
            if not isinstance(ty, ArrayType):
                raise CodegenError("initializer list on non-array")
            elem_cty = CType(stmt.type.base, stmt.type.pointers)
            for i, e in enumerate(stmt.init_list):
                v, cty = self.eval_expr(e)
                v = self.convert(v, cty, elem_cty)
                g = self.b.gep(slot, [0, i])
                self.b.store(v, g, tbaa=self.cg.tbaa_for(elem_cty))
            # zero the rest
            for i in range(len(stmt.init_list), ty.count):
                g = self.b.gep(slot, [0, i])
                zero = (ConstantInt(ty.element, 0)
                        if isinstance(ty.element, IntType)
                        else ConstantFloat(ty.element, 0.0))
                self.b.store(zero, g, tbaa=self.cg.tbaa_for(elem_cty))

    def emit_if(self, stmt: If) -> None:
        cond = self.eval_condition(stmt.cond)
        then_bb = self.fn.add_block("if.then", after=self.b.block)
        else_bb = self.fn.add_block("if.else", after=then_bb) \
            if stmt.other is not None else None
        join = self.fn.add_block(
            "if.end", after=else_bb if else_bb is not None else then_bb)
        self.b.cond_br(cond, then_bb,
                       else_bb if else_bb is not None else join)
        self.b.position_at_end(then_bb)
        self.emit_stmt(stmt.then)
        if self.b.block.terminator is None:
            self.b.br(join)
        if else_bb is not None:
            self.b.position_at_end(else_bb)
            self.emit_stmt(stmt.other)
            if self.b.block.terminator is None:
                self.b.br(join)
        self.b.position_at_end(join)

    def emit_while(self, stmt: While) -> None:
        header = self.fn.add_block("while.cond", after=self.b.block)
        body = self.fn.add_block("while.body", after=header)
        exit_bb = self.fn.add_block("while.end", after=body)
        self.b.br(header)
        self.b.position_at_end(header)
        cond = self.eval_condition(stmt.cond)
        self.b.cond_br(cond, body, exit_bb)
        self.b.position_at_end(body)
        self.break_targets.append(exit_bb)
        self.continue_targets.append(header)
        self.emit_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.b.block.terminator is None:
            self.b.br(header)
        self.b.position_at_end(exit_bb)

    def emit_for(self, stmt: For) -> None:
        saved = dict(self.scope)
        if stmt.init is not None:
            self.emit_stmt(stmt.init)
        header = self.fn.add_block("for.cond", after=self.b.block)
        body = self.fn.add_block("for.body", after=header)
        latch = self.fn.add_block("for.inc", after=body)
        exit_bb = self.fn.add_block("for.end", after=latch)
        self.b.br(header)
        self.b.position_at_end(header)
        if stmt.cond is not None:
            cond = self.eval_condition(stmt.cond)
            self.b.cond_br(cond, body, exit_bb)
        else:
            self.b.br(body)
        self.b.position_at_end(body)
        self.break_targets.append(exit_bb)
        self.continue_targets.append(latch)
        self.emit_stmt(stmt.body)
        self.break_targets.pop()
        self.continue_targets.pop()
        if self.b.block.terminator is None:
            self.b.br(latch)
        self.b.position_at_end(latch)
        if stmt.step is not None:
            self.eval_expr(stmt.step)
        self.b.br(header)
        self.b.position_at_end(exit_bb)
        self.scope = saved

    # -- OpenMP outlining --------------------------------------------------
    def emit_omp_for(self, stmt: For) -> None:
        from .omp import outline_parallel_for
        outline_parallel_for(self, stmt)

    # -- conditions & conversions -----------------------------------------
    def eval_condition(self, e: Expr) -> Value:
        v, cty = self.eval_expr(e)
        if v.type == I1:
            return v
        if isinstance(v, CastInst) and v.op == "zext" and v.value.type == I1:
            return v.value  # comparison result widened for value context
        if isinstance(v.type, IntType):
            return self.b.icmp("ne", v, ConstantInt(v.type, 0))
        if isinstance(v.type, FloatType):
            return self.b.fcmp("one", v, ConstantFloat(v.type, 0.0))
        if v.type.is_pointer:
            return self.b.icmp("ne", self.b.cast("ptrtoint", v, I64),
                               self.b.i64(0))
        raise CodegenError(f"bad condition type {v.type}")

    def convert(self, v: Value, src: CType, dst: CType) -> Value:
        st, dt = self.ir_type(src) if src else v.type, self.ir_type(dst)
        return self._convert_ir(v, dt)

    def _convert_ir(self, v: Value, dt: Type) -> Value:
        st = v.type
        if st == dt:
            return v
        if st == I1 and isinstance(dt, IntType):
            return self.b.cast("zext", v, dt)
        if isinstance(st, IntType) and isinstance(dt, IntType):
            if dt.bits > st.bits:
                return self.b.cast("sext", v, dt)
            return self.b.cast("trunc", v, dt)
        if isinstance(st, IntType) and isinstance(dt, FloatType):
            if st == I1:
                v = self.b.cast("zext", v, I64)
            return self.b.cast("sitofp", v, dt)
        if isinstance(st, FloatType) and isinstance(dt, IntType):
            return self.b.cast("fptosi", v, dt)
        if isinstance(st, FloatType) and isinstance(dt, FloatType):
            return self.b.cast("fpext" if dt.bits > st.bits else "fptrunc",
                               v, dt)
        if st.is_pointer and dt.is_pointer:
            return self.b.cast("bitcast", v, dt)
        if st.is_pointer and isinstance(dt, IntType):
            return self.b.cast("ptrtoint", v, dt)
        if isinstance(st, IntType) and dt.is_pointer:
            return self.b.cast("inttoptr", v, dt)
        raise CodegenError(f"cannot convert {st} to {dt}")

    # -- lvalues -----------------------------------------------------------
    def eval_lvalue(self, e: Expr) -> _LValue:
        if isinstance(e, Ident):
            entry = self.scope.get(e.name)
            if entry is not None:
                slot, cty = entry
                base = e.name if cty.pointers == 0 else e.name
                return _LValue(slot, cty, self.cg.tbaa_for(cty), e.name)
            gv = self.module.globals.get(e.name)
            if gv is not None:
                gcty = self._global_ctype(e.name)
                return _LValue(gv, gcty, self.cg.tbaa_for(gcty), None)
            raise CodegenError(f"line {e.line}: unknown variable {e.name!r}")
        if isinstance(e, Index):
            return self._index_lvalue(e)
        if isinstance(e, Member):
            return self._member_lvalue(e)
        if isinstance(e, Unary) and e.op == "*":
            v, cty = self.eval_expr(e.operand)
            if cty.pointers == 0:
                raise CodegenError(f"line {e.line}: dereference of non-pointer")
            inner = CType(cty.base, cty.pointers - 1, cty.array_dims)
            return _LValue(v, inner, self.cg.tbaa_for(inner),
                           self._base_param_of(e.operand))
        raise CodegenError(f"line {e.line}: not an lvalue: {e}")

    def _global_ctype(self, name: str) -> CType:
        gv = self.module.globals[name]
        return _ctype_of_ir(gv.value_type)

    def _base_param_of(self, e: Expr) -> Optional[str]:
        """Which restrict parameter (if any) an address is based on."""
        if isinstance(e, Ident):
            return e.name if e.name in self.restrict_scopes else None
        if isinstance(e, Index):
            return self._base_param_of(e.base)
        if isinstance(e, Unary) and e.op in ("*", "&"):
            return self._base_param_of(e.operand)
        if isinstance(e, Binary) and e.op in ("+", "-"):
            return (self._base_param_of(e.lhs)
                    or self._base_param_of(e.rhs))
        if isinstance(e, Member):
            return self._base_param_of(e.base)
        if isinstance(e, CastExpr):
            return self._base_param_of(e.value)
        return None

    def _index_lvalue(self, e: Index) -> _LValue:
        base_lv_expr = e.base
        idx, icty = self.eval_expr(e.index)
        idx = self._convert_ir(idx, I64)
        # array variable (local/global) or pointer value?
        if isinstance(base_lv_expr, (Ident, Member, Index)):
            lv = self.eval_lvalue(base_lv_expr)
            if lv.cty.array_dims and lv.cty.pointers == 0:
                inner = CType(lv.cty.base, 0, lv.cty.array_dims[1:])
                g = self.b.gep(lv.addr, [0, idx], dbg=self.dbg(e.line))
                if inner.array_dims:
                    tb = None
                else:
                    tb = self.cg.tbaa_for(inner)
                return _LValue(g, inner, tb, lv.base_param)
        v, cty = self.eval_expr(base_lv_expr)
        if cty.pointers == 0:
            raise CodegenError(f"line {e.line}: indexing non-pointer")
        inner = CType(cty.base, cty.pointers - 1, cty.array_dims)
        g = self.b.gep(v, [idx], dbg=self.dbg(e.line))
        return _LValue(g, inner, self.cg.tbaa_for(inner),
                       self._base_param_of(base_lv_expr))

    def _member_lvalue(self, e: Member) -> _LValue:
        if e.arrow:
            base_v, bcty = self.eval_expr(e.base)
            if bcty.pointers != 1 or not bcty.base.startswith("struct "):
                raise CodegenError(f"line {e.line}: -> on non-struct-pointer")
            struct_name = bcty.base[len("struct "):]
            addr = base_v
        else:
            lv = self.eval_lvalue(e.base)
            if not lv.cty.base.startswith("struct ") or lv.cty.pointers:
                raise CodegenError(f"line {e.line}: . on non-struct")
            struct_name = lv.cty.base[len("struct "):]
            addr = lv.addr
        st = self.module.struct_types[struct_name]
        fi = st.field_index(e.name)
        fty_ir = st.fields[fi]
        fcty = _ctype_of_ir(fty_ir)
        g = self.b.gep(addr, [0, ConstantInt(I64, fi)], dbg=self.dbg(e.line))
        tb = self.cg.tbaa_field(struct_name, e.name, fcty)
        return _LValue(g, fcty, tb, self._base_param_of(e.base))

    # -- expressions ---------------------------------------------------------
    def eval_expr(self, e: Expr) -> Tuple[Value, CType]:
        if isinstance(e, IntLit):
            return ConstantInt(I64, e.value), CType("int")
        if isinstance(e, FloatLit):
            return ConstantFloat(F64, e.value), CType("double")
        if isinstance(e, StrLit):
            gv = self.module.add_string(e.value)
            return gv, CType("char", 1)
        if isinstance(e, Ident):
            return self._load_ident(e)
        if isinstance(e, (Index, Member)):
            lv = self.eval_lvalue(e)
            return self._load_lvalue(lv, e.line)
        if isinstance(e, Unary):
            return self._eval_unary(e)
        if isinstance(e, Binary):
            return self._eval_binary(e)
        if isinstance(e, Assign):
            return self._eval_assign(e)
        if isinstance(e, Ternary):
            return self._eval_ternary(e)
        if isinstance(e, Call):
            return self._eval_call(e)
        if isinstance(e, CastExpr):
            v, cty = self.eval_expr(e.value)
            dt = self.ir_type(e.type)
            return self._convert_ir(v, dt), e.type
        if isinstance(e, SizeofExpr):
            return ConstantInt(I64, self.ir_type(e.type).size()), CType("int")
        raise CodegenError(f"unhandled expression {e}")

    def _load_ident(self, e: Ident) -> Tuple[Value, CType]:
        entry = self.scope.get(e.name)
        if entry is not None:
            slot, cty = entry
            if cty.array_dims and cty.pointers == 0:
                # arrays decay to a pointer to their first element
                g = self.b.gep(slot, [0, 0], dbg=self.dbg(e.line))
                decayed = CType(cty.base, 1, cty.array_dims[1:])
                return g, decayed
            lv = _LValue(slot, cty, self.cg.tbaa_for(cty), e.name)
            return self._load_lvalue(lv, e.line)
        gv = self.module.globals.get(e.name)
        if gv is not None:
            cty = self._global_ctype(e.name)
            if cty.array_dims and cty.pointers == 0:
                g = self.b.gep(gv, [0, 0], dbg=self.dbg(e.line))
                return g, CType(cty.base, 1, cty.array_dims[1:])
            lv = _LValue(gv, cty, self.cg.tbaa_for(cty), None)
            return self._load_lvalue(lv, e.line)
        fn = self.module.functions.get(e.name)
        if fn is not None:
            return fn, CType("void", 1)
        raise CodegenError(f"line {e.line}: unknown identifier {e.name!r}")

    def _load_lvalue(self, lv: _LValue, line: int) -> Tuple[Value, CType]:
        if lv.cty.base.startswith("struct ") and lv.cty.pointers == 0 \
                and not lv.cty.array_dims:
            # aggregates load as their address (for member/ptr passing)
            return lv.addr, CType(lv.cty.base, 1)
        if lv.cty.array_dims and lv.cty.pointers == 0:
            g = self.b.gep(lv.addr, [0, 0], dbg=self.dbg(line))
            return g, CType(lv.cty.base, 1, lv.cty.array_dims[1:])
        ld = self.b.load(lv.addr, tbaa=lv.tbaa, dbg=self.dbg(line))
        ld.scoped = self.scoped_for(lv.base_param)
        return ld, lv.cty

    def _store_lvalue(self, lv: _LValue, v: Value, line: int) -> None:
        st = self.b.store(v, lv.addr, tbaa=lv.tbaa, dbg=self.dbg(line))
        st.scoped = self.scoped_for(lv.base_param)

    def _eval_unary(self, e: Unary) -> Tuple[Value, CType]:
        if e.op == "&":
            lv = self.eval_lvalue(e.operand)
            return lv.addr, CType(lv.cty.base, lv.cty.pointers + 1,
                                  lv.cty.array_dims)
        if e.op == "*":
            lv = self.eval_lvalue(e)
            return self._load_lvalue(lv, e.line)
        if e.op in ("++", "--", "p++", "p--"):
            lv = self.eval_lvalue(e.operand)
            old, cty = self._load_lvalue(lv, e.line)
            one = (ConstantFloat(old.type, 1.0)
                   if isinstance(old.type, FloatType)
                   else ConstantInt(old.type if isinstance(old.type, IntType)
                                    else I64, 1))
            if cty.pointers:
                new = self.b.gep(old, [self.b.i64(
                    1 if "+" in e.op else -1)], dbg=self.dbg(e.line))
            else:
                op = ("fadd" if isinstance(old.type, FloatType) else "add") \
                    if "+" in e.op else (
                        "fsub" if isinstance(old.type, FloatType) else "sub")
                new = self.b.binop(op, old, one)
            self._store_lvalue(lv, new, e.line)
            return (old if e.op.startswith("p") else new), cty
        v, cty = self.eval_expr(e.operand)
        if e.op == "-":
            if isinstance(v.type, FloatType):
                return self.b.fsub(ConstantFloat(v.type, 0.0), v), cty
            return self.b.sub(ConstantInt(v.type, 0), v), cty
        if e.op == "!":
            c = self.eval_condition(e.operand)
            inv = self.b.binop("xor", c, ConstantInt(I1, 1))
            return self.b.cast("zext", inv, I64), CType("int")
        if e.op == "~":
            return self.b.binop("xor", v, ConstantInt(v.type, -1)), cty
        raise CodegenError(f"unhandled unary {e.op}")

    def _eval_binary(self, e: Binary) -> Tuple[Value, CType]:
        if e.op in ("&&", "||"):
            return self._short_circuit(e)
        lv, lcty = self.eval_expr(e.lhs)
        rv, rcty = self.eval_expr(e.rhs)
        # pointer arithmetic
        if lcty.pointers and e.op in ("+", "-") and not rcty.pointers:
            rv = self._convert_ir(rv, I64)
            if e.op == "-":
                rv = self.b.sub(self.b.i64(0), rv)
            g = self.b.gep(lv, [rv], dbg=self.dbg(e.line))
            return g, lcty
        if lcty.pointers and rcty.pointers and e.op == "-":
            li = self.b.cast("ptrtoint", lv, I64)
            ri = self.b.cast("ptrtoint", rv, I64)
            diff = self.b.sub(li, ri)
            esz = self.ir_type(CType(lcty.base, lcty.pointers - 1)).size()
            return self.b.sdiv(diff, self.b.i64(esz)), CType("int")
        if lcty.pointers or rcty.pointers:
            if e.op in ("==", "!=", "<", "<=", ">", ">="):
                li = self._convert_ir(lv, I64)
                ri = self._convert_ir(rv, I64)
                pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                        ">": "ugt", ">=": "uge"}[e.op]
                c = self.b.icmp(pred, li, ri)
                return self.b.cast("zext", c, I64), CType("int")
        lv, rv, fty = self._usual_conversions(lv, rv)
        is_float = isinstance(lv.type, FloatType)
        if e.op in ("+", "-", "*", "/", "%"):
            op = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv",
                  "%": "srem"}[e.op]
            if is_float:
                op = {"add": "fadd", "sub": "fsub", "mul": "fmul",
                      "sdiv": "fdiv", "srem": "frem"}[op]
            return self.b.binop(op, lv, rv, ), fty
        if e.op in ("&", "|", "^", "<<", ">>"):
            op = {"&": "and", "|": "or", "^": "xor", "<<": "shl",
                  ">>": "ashr"}[e.op]
            return self.b.binop(op, lv, rv), fty
        if e.op in ("==", "!=", "<", "<=", ">", ">="):
            if is_float:
                pred = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole",
                        ">": "ogt", ">=": "oge"}[e.op]
                c = self.b.fcmp(pred, lv, rv)
            else:
                pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                        ">": "sgt", ">=": "sge"}[e.op]
                c = self.b.icmp(pred, lv, rv)
            return self.b.cast("zext", c, I64), CType("int")
        raise CodegenError(f"unhandled binary {e.op}")

    def _usual_conversions(self, lv: Value, rv: Value
                           ) -> Tuple[Value, Value, CType]:
        lt, rt = lv.type, rv.type
        if isinstance(lt, FloatType) or isinstance(rt, FloatType):
            target = F64 if (getattr(lt, "bits", 0) == 64
                             or getattr(rt, "bits", 0) == 64
                             or isinstance(lt, IntType)
                             or isinstance(rt, IntType)) else F32
            if lt == F32 and rt == F32:
                target = F32
            lv = self._convert_ir(lv, target)
            rv = self._convert_ir(rv, target)
            return lv, rv, CType("double" if target == F64 else "float")
        lv = self._convert_ir(lv, I64)
        rv = self._convert_ir(rv, I64)
        return lv, rv, CType("int")

    def _short_circuit(self, e: Binary) -> Tuple[Value, CType]:
        lhs = self.eval_condition(e.lhs)
        rhs_bb = self.fn.add_block("sc.rhs", after=self.b.block)
        join = self.fn.add_block("sc.end", after=rhs_bb)
        from_bb = self.b.block
        if e.op == "&&":
            self.b.cond_br(lhs, rhs_bb, join)
        else:
            self.b.cond_br(lhs, join, rhs_bb)
        self.b.position_at_end(rhs_bb)
        rhs = self.eval_condition(e.rhs)
        rhs_exit = self.b.block
        self.b.br(join)
        self.b.position_at_end(join)
        phi = self.b.phi(I1)
        phi.add_incoming(ConstantInt(I1, 0 if e.op == "&&" else 1), from_bb)
        phi.add_incoming(rhs, rhs_exit)
        return self.b.cast("zext", phi, I64), CType("int")

    def _eval_ternary(self, e: Ternary) -> Tuple[Value, CType]:
        cond = self.eval_condition(e.cond)
        then_bb = self.fn.add_block("tern.then", after=self.b.block)
        else_bb = self.fn.add_block("tern.else", after=then_bb)
        join = self.fn.add_block("tern.end", after=else_bb)
        self.b.cond_br(cond, then_bb, else_bb)
        self.b.position_at_end(then_bb)
        tv, tcty = self.eval_expr(e.then)
        t_exit = self.b.block
        self.b.br(join)
        self.b.position_at_end(else_bb)
        fv, fcty = self.eval_expr(e.other)
        # unify types
        if tv.type != fv.type:
            fv = self._convert_ir(fv, tv.type)
        f_exit = self.b.block
        self.b.br(join)
        self.b.position_at_end(join)
        phi = self.b.phi(tv.type)
        phi.add_incoming(tv, t_exit)
        phi.add_incoming(fv, f_exit)
        return phi, tcty

    def _eval_assign(self, e: Assign) -> Tuple[Value, CType]:
        lv = self.eval_lvalue(e.target)
        if e.op == "=":
            v, cty = self.eval_expr(e.value)
            v = self.convert(v, cty, lv.cty)
            self._store_lvalue(lv, v, e.line)
            return v, lv.cty
        # compound assignment: load, op, store
        old, ocy = self._load_lvalue(lv, e.line)
        rv, rcty = self.eval_expr(e.value)
        binop = e.op[:-1]
        fake = Binary(e.line, binop, None, None)
        l2, r2, fty = self._usual_conversions(old, rv)
        is_float = isinstance(l2.type, FloatType)
        opmap = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv",
                 "%": "srem", "&": "and", "|": "or", "^": "xor",
                 "<<": "shl", ">>": "ashr"}
        op = opmap[binop]
        if is_float:
            op = {"add": "fadd", "sub": "fsub", "mul": "fmul",
                  "sdiv": "fdiv", "srem": "frem"}[op]
        res = self.b.binop(op, l2, r2)
        res = self.convert(res, fty, lv.cty)
        self._store_lvalue(lv, res, e.line)
        return res, lv.cty

    # -- calls --------------------------------------------------------------
    def _eval_call(self, e: Call) -> Tuple[Value, CType]:
        name = e.callee
        if name == "launch":
            return self._eval_launch(e)
        fn = self.module.functions.get(name)
        if fn is not None and not (fn.is_declaration
                                   and name in BUILTINS):
            if len(e.args) != len(fn.ftype.params):
                raise CodegenError(
                    f"line {e.line}: {name}() expects "
                    f"{len(fn.ftype.params)} args, got {len(e.args)}")
            args = []
            for a, pty in zip(e.args, fn.ftype.params):
                v, cty = self.eval_expr(a)
                args.append(self._convert_ir(v, pty))
            call = self.b.call(fn, args)
            rcty = _ctype_of_ir(fn.return_type) if not \
                fn.return_type.is_void else CType("void")
            return call, rcty
        if name in BUILTINS:
            ret, _pure = BUILTINS[name]
            args = []
            for a in e.args:
                v, cty = self.eval_expr(a)
                if v.type == F32:
                    v = self.b.cast("fpext", v, F64)
                elif isinstance(v.type, IntType) and v.type.bits < 64:
                    v = self.b.cast("sext", v, I64)
                args.append(v)
            call = self.b.call(name, args, type=ret)
            return call, _ctype_of_ir(ret) if not ret.is_void \
                else CType("void")
        raise CodegenError(f"line {e.line}: call to unknown function {name!r}")

    def _eval_launch(self, e: Call) -> Tuple[Value, CType]:
        if len(e.args) < 3 or not isinstance(e.args[0], Ident):
            raise CodegenError(f"line {e.line}: launch(kernel, grid, block, ...)")
        kern = self.module.functions.get(e.args[0].name)
        if kern is None or "kernel" not in kern.attrs:
            raise CodegenError(
                f"line {e.line}: launch target {e.args[0].name!r} "
                "is not a __global__ kernel")
        grid, _ = self.eval_expr(e.args[1])
        block, _ = self.eval_expr(e.args[2])
        args = [kern, self._convert_ir(grid, I64),
                self._convert_ir(block, I64)]
        for a, pty in zip(e.args[3:], kern.ftype.params):
            v, _ = self.eval_expr(a)
            args.append(self._convert_ir(v, pty))
        call = self.b.call("cuda_launch", args, type=VOID)
        return call, CType("void")


def _ctype_of_ir(ty: Type) -> CType:
    """Best-effort reverse mapping for globals and return values."""
    ptrs = 0
    dims: List[int] = []
    while isinstance(ty, PointerType):
        ptrs += 1
        ty = ty.pointee
    while isinstance(ty, ArrayType):
        dims.append(ty.count)
        ty = ty.element
    if isinstance(ty, StructType):
        base = f"struct {ty.name}"
    elif ty == F64:
        base = "double"
    elif ty == F32:
        base = "float"
    elif ty == I8:
        base = "char"
    elif isinstance(ty, IntType):
        base = "int"
    elif ty.is_void:
        base = "void"
    else:
        base = "int"
    return CType(base, ptrs, tuple(dims))


def compile_source(source: str,
                   filename: str = "<minic>",
                   module: Optional[Module] = None,
                   options: Optional[FrontendOptions] = None) -> Module:
    """Front-end entry: MiniC text → (unoptimized) IR module."""
    cg = CodeGen(module, options, filename)
    return cg.generate(parse(source, filename, unit_name=filename))
