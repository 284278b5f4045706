"""OpenMP ``parallel for`` outlining.

The frontend rewrites

    #pragma omp parallel for
    for (int i = lo; i < hi; i++) BODY

into an outlined function

    void <parent>.omp_outlined..N(int tid, struct ctx* __ctx,
                                  int lb, int ub)
        { for (int i = lb; i < ub; i++) BODY' }

where ``ctx`` holds the *addresses* of every captured variable and
``BODY'`` accesses captured variables through pointers loaded from the
context.  This is the same shape clang's OpenMP lowering produces, and
those context-pointer loads (``dptr``) are the source of most residual
alias queries in the paper's OpenMP configurations (§V-A, Fig. 3).
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..ir import (
    FunctionType,
    I64,
    Type,
    VOID,
    ptr,
)
from .ast_nodes import (
    Assign,
    Binary,
    Call,
    CType,
    DeclStmt,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    Ident,
    Param,
    Stmt,
    Unary,
)


class OmpError(Exception):
    pass


def _collect_idents(node, out: Set[str]) -> None:
    """All identifier references in an AST fragment."""
    if node is None:
        return
    if isinstance(node, Ident):
        out.add(node.name)
        return
    if isinstance(node, Call):
        for a in node.args:
            _collect_idents(a, out)
        return
    for attr in ("operand", "lhs", "rhs", "target", "value", "cond", "then",
                 "other", "base", "index", "init", "step", "body",
                 "expr"):
        child = getattr(node, attr, None)
        if isinstance(child, (Expr, Stmt)):
            _collect_idents(child, out)
    for attr in ("statements", "init_list"):
        children = getattr(node, attr, None)
        if children:
            for c in children:
                _collect_idents(c, out)


def _collect_local_decls(node, out: Set[str]) -> None:
    if node is None:
        return
    if isinstance(node, DeclStmt):
        out.add(node.name)
    for attr in ("init", "step", "body", "then", "other"):
        child = getattr(node, attr, None)
        if isinstance(child, Stmt):
            _collect_local_decls(child, out)
    for child in getattr(node, "statements", []) or []:
        _collect_local_decls(child, out)


def _loop_bounds(stmt: For) -> Tuple[str, Expr, Expr]:
    """Extract (loop var, lower, upper) from a canonical parallel for."""
    init = stmt.init
    if isinstance(init, DeclStmt) and init.init is not None:
        var, lo = init.name, init.init
    elif isinstance(init, ExprStmt) and isinstance(init.expr, Assign) \
            and isinstance(init.expr.target, Ident):
        var, lo = init.expr.target.name, init.expr.value
    else:
        raise OmpError("omp for requires 'int i = lo' init")
    cond = stmt.cond
    if not isinstance(cond, Binary) or cond.op not in ("<", "<=") \
            or not isinstance(cond.lhs, Ident) or cond.lhs.name != var:
        raise OmpError("omp for requires 'i < hi' condition")
    hi = cond.rhs
    if cond.op == "<=":
        hi = Binary(cond.line, "+", hi, IntLitOne(cond.line))
    step = stmt.step
    ok_step = False
    if isinstance(step, Unary) and step.op in ("++", "p++") \
            and isinstance(step.operand, Ident) and step.operand.name == var:
        ok_step = True
    if isinstance(step, Assign) and step.op == "+=" \
            and isinstance(step.target, Ident) and step.target.name == var:
        from .ast_nodes import IntLit
        if isinstance(step.value, IntLit) and step.value.value == 1:
            ok_step = True
    if not ok_step:
        raise OmpError("omp for requires unit-increment step")
    return var, lo, hi


def IntLitOne(line: int):
    from .ast_nodes import IntLit
    return IntLit(line, 1)


def outline_parallel_for(emitter, stmt: For) -> None:
    """Emit the outlined function + runtime call for one parallel for."""
    cg = emitter.cg
    module = cg.module
    var, lo_expr, hi_expr = _loop_bounds(stmt)

    # capture set: referenced names bound in the enclosing scope
    refs: Set[str] = set()
    _collect_idents(stmt.body, refs)
    _collect_idents(hi_expr, refs)
    body_locals: Set[str] = set()
    _collect_local_decls(stmt.body, body_locals)
    captured = sorted(
        n for n in refs
        if n in emitter.scope and n != var and n not in body_locals)

    # context struct: one pointer field per captured variable
    oid = cg.next_outline_id()
    ctx_name = f"omp.ctx.{emitter.fn.name}.{oid}"
    field_types: List[Type] = []
    field_names: List[str] = []
    for n in captured:
        slot, cty = emitter.scope[n]
        field_types.append(slot.type)  # pointer to the variable's storage
        field_names.append(n)
    ctx_ty = module.add_struct_type(ctx_name, field_types, field_names)

    outlined_name = f"{emitter.fn.name}.omp_outlined..{oid}"
    ftype = FunctionType(VOID, [I64, ptr(ctx_ty), I64, I64])
    out_fn = module.add_function(ftype, outlined_name,
                                 ["tid", "__ctx", "lb", "ub"],
                                 target=emitter.fn.target)
    out_fn.source_file = emitter.fn.source_file
    out_fn.attrs.add("omp-outlined")

    # emit the outlined body with a sub-emitter
    sub_fd = FunctionDef(CType("void"), outlined_name, [
        Param(CType("int"), "tid"),
        Param(CType(f"struct {ctx_name}", 1), "__ctx"),
        Param(CType("int"), "lb"),
        Param(CType("int"), "ub"),
    ], None, False, stmt.line)
    from .codegen import FnEmitter
    sub = FnEmitter(cg, sub_fd, out_fn)
    entry = out_fn.add_block("entry")
    sub.b.position_at_end(entry)
    sub.b.default_dbg = emitter.dbg(stmt.line)
    # parameter slots
    for arg, p in zip(out_fn.args, sub_fd.params):
        slot = sub.b.alloca(arg.type, name=f"{p.name}.addr")
        sub.b.store(arg, slot)
        sub.scope[p.name] = (slot, p.type)
    # load captured-variable pointers from the context (the dptr loads)
    ctx_ld = sub.b.load(sub.scope["__ctx"][0], name="ctx")
    any_ptr_tbaa = (module.tbaa.scalar("any pointer")
                    if cg.options.strict_aliasing else None)
    for i, n in enumerate(captured):
        g = sub.b.gep(ctx_ld, [0, i], name=f"dptr.{n}",
                      dbg=emitter.dbg(stmt.line))
        p = sub.b.load(g, name=f"cap.{n}", tbaa=any_ptr_tbaa,
                       dbg=emitter.dbg(stmt.line))
        _, cty = emitter.scope[n]
        # the loaded value is the *address* of the captured variable;
        # register it as the variable's storage slot
        sub.scope[n] = (p, cty)

    # for (i = lb; i < ub; i++) BODY
    from .ast_nodes import IntLit
    loop = For(
        stmt.line,
        DeclStmt(stmt.line, CType("int"), var, Ident(stmt.line, "lb")),
        Binary(stmt.line, "<", Ident(stmt.line, var), Ident(stmt.line, "ub")),
        Assign(stmt.line, "+=", Ident(stmt.line, var), IntLit(stmt.line, 1)),
        stmt.body,
    )
    sub.emit_for(loop)
    if sub.b.block.terminator is None:
        sub.b.ret()
    for bb in list(out_fn.blocks):
        if bb.terminator is None:
            sub.b.position_at_end(bb)
            sub.b.ret()

    # call site: build the context and invoke the runtime
    b = emitter.b
    ctx_slot = emitter.create_alloca(ctx_ty, f"omp.ctx.{oid}")
    for i, n in enumerate(captured):
        slot, _ = emitter.scope[n]
        g = b.gep(ctx_slot, [0, i])
        b.store(slot, g)
    lo_v, lo_cty = emitter.eval_expr(lo_expr)
    hi_v, hi_cty = emitter.eval_expr(hi_expr)
    lo_v = emitter._convert_ir(lo_v, I64)
    hi_v = emitter._convert_ir(hi_v, I64)
    b.call("omp_parallel_for", [out_fn, ctx_slot, lo_v, hi_v], type=VOID)
