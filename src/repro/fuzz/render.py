"""MiniC unparser and AST sizing for the fuzzing subsystem.

The generator and the reducer both work at the frontend-AST level
(``repro.frontend.ast_nodes``); the compiler's entry point is source
text, so every candidate program is rendered back to MiniC before it is
compiled.  Rendered programs must re-parse to an equivalent AST — the
round-trip ``parse(render(unit))`` is pinned by ``tests/test_fuzz_generator.py``.

``ast_size`` counts *structural* nodes — functions, globals, structs,
and statements — which is the granularity the delta-debugging reducer
operates at (it removes statements and functions, never sub-expression
fragments), and the unit in which corpus-entry sizes are reported.
"""

from __future__ import annotations

from typing import List

from ..frontend.ast_nodes import (
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
    Ident,
    If,
    Index,
    IntLit,
    Member,
    Return,
    SizeofExpr,
    Stmt,
    StrLit,
    Ternary,
    TranslationUnit,
    Unary,
    While,
)

INDENT = "  "


# -- types -------------------------------------------------------------------

def render_type(ty: CType) -> str:
    """The declaration-specifier part of a type (array dims are rendered
    at the declarator, see :func:`_declarator`)."""
    s = ty.base
    if ty.const:
        s = "const " + s
    s += "*" * ty.pointers
    if ty.restrict:
        s += " restrict"
    return s


def _declarator(ty: CType, name: str) -> str:
    s = f"{render_type(ty)} {name}"
    for d in ty.array_dims:
        s += f"[{d}]"
    return s


# -- expressions -------------------------------------------------------------

#: binding strength used to decide where parentheses are required; the
#: renderer is deliberately generous with parentheses inside binary
#: operands (correctness over prettiness)

def _float_text(v: float) -> str:
    # keep a decimal point so the lexer sees a float literal
    text = repr(float(v))
    if "e" not in text and "." not in text and "inf" not in text \
            and "nan" not in text:
        text += ".0"
    return text


def render_expr(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, FloatLit):
        return _float_text(e.value)
    if isinstance(e, StrLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') \
            .replace("\n", "\\n").replace("\t", "\\t") + '"'
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Unary):
        if e.op in ("p++", "p--"):
            return f"({render_expr(e.operand)}){e.op[1:]}"
        return f"{e.op}({render_expr(e.operand)})"
    if isinstance(e, Binary):
        return f"({render_expr(e.lhs)} {e.op} {render_expr(e.rhs)})"
    if isinstance(e, Assign):
        return f"{render_expr(e.target)} {e.op} {render_expr(e.value)}"
    if isinstance(e, Ternary):
        return (f"(({render_expr(e.cond)}) ? ({render_expr(e.then)}) "
                f": ({render_expr(e.other)}))")
    if isinstance(e, Call):
        args = ", ".join(render_expr(a) for a in e.args)
        return f"{e.callee}({args})"
    if isinstance(e, Index):
        return f"{render_expr(e.base)}[{render_expr(e.index)}]"
    if isinstance(e, Member):
        return f"{render_expr(e.base)}{'->' if e.arrow else '.'}{e.name}"
    if isinstance(e, CastExpr):
        return f"(({render_type(e.type)})({render_expr(e.value)}))"
    if isinstance(e, SizeofExpr):
        return f"sizeof({render_type(e.type)})"
    raise TypeError(f"unrenderable expression node: {e!r}")


# -- statements --------------------------------------------------------------

def _render_stmt(s: Stmt, out: List[str], depth: int) -> None:
    pad = INDENT * depth
    if isinstance(s, ExprStmt):
        out.append(f"{pad}{render_expr(s.expr)};")
    elif isinstance(s, DeclStmt):
        line = f"{pad}{_declarator(s.type, s.name)}"
        if s.init is not None:
            line += f" = {render_expr(s.init)}"
        elif s.init_list is not None:
            line += " = {" + ", ".join(
                render_expr(e) for e in s.init_list) + "}"
        out.append(line + ";")
    elif isinstance(s, Block):
        out.append(f"{pad}{{")
        for inner in s.statements:
            _render_stmt(inner, out, depth + 1)
        out.append(f"{pad}}}")
    elif isinstance(s, If):
        out.append(f"{pad}if ({render_expr(s.cond)})")
        _render_braced(s.then, out, depth)
        if s.other is not None:
            out.append(f"{pad}else")
            _render_braced(s.other, out, depth)
    elif isinstance(s, While):
        out.append(f"{pad}while ({render_expr(s.cond)})")
        _render_braced(s.body, out, depth)
    elif isinstance(s, For):
        if s.omp_parallel:
            out.append(f"{pad}#pragma omp parallel for")
        init = ""
        if isinstance(s.init, DeclStmt):
            init = f"{_declarator(s.init.type, s.init.name)}"
            if s.init.init is not None:
                init += f" = {render_expr(s.init.init)}"
        elif isinstance(s.init, ExprStmt):
            init = render_expr(s.init.expr)
        cond = render_expr(s.cond) if s.cond is not None else ""
        step = render_expr(s.step) if s.step is not None else ""
        out.append(f"{pad}for ({init}; {cond}; {step})")
        _render_braced(s.body, out, depth)
    elif isinstance(s, Return):
        if s.value is None:
            out.append(f"{pad}return;")
        else:
            out.append(f"{pad}return {render_expr(s.value)};")
    elif isinstance(s, Break):
        out.append(f"{pad}break;")
    elif isinstance(s, Continue):
        out.append(f"{pad}continue;")
    else:
        raise TypeError(f"unrenderable statement node: {s!r}")


def _render_braced(s: Stmt, out: List[str], depth: int) -> None:
    """Render a loop/if body, always as a braced block."""
    pad = INDENT * depth
    if isinstance(s, Block):
        _render_stmt(s, out, depth)
    else:
        out.append(f"{pad}{{")
        _render_stmt(s, out, depth + 1)
        out.append(f"{pad}}}")


# -- top level ---------------------------------------------------------------

def render_unit(unit: TranslationUnit) -> str:
    out: List[str] = []
    for st in unit.structs:
        out.append(f"struct {st.name} {{")
        for f in st.fields:
            out.append(f"{INDENT}{_declarator(f.type, f.name)};")
        out.append("};")
        out.append("")
    for g in unit.globals:
        line = _declarator(g.type, g.name)
        if g.init is not None:
            line += f" = {render_expr(g.init)}"
        elif g.init_list is not None:
            line += " = {" + ", ".join(
                render_expr(e) for e in g.init_list) + "}"
        out.append(line + ";")
    if unit.globals:
        out.append("")
    for fn in unit.functions:
        params = ", ".join(_declarator(p.type, p.name) for p in fn.params)
        header = f"{render_type(fn.ret)} {fn.name}({params})"
        if fn.is_kernel:
            header = "__global__ " + header
        if fn.body is None:
            out.append(header + ";")
            continue
        out.append(header)
        _render_stmt(fn.body, out, 0)
        out.append("")
    return "\n".join(out) + "\n"


# -- sizing ------------------------------------------------------------------

def _stmt_count(s: Stmt) -> int:
    if isinstance(s, Block):
        return 1 + sum(_stmt_count(inner) for inner in s.statements)
    if isinstance(s, If):
        n = 1 + _stmt_count(s.then)
        if s.other is not None:
            n += _stmt_count(s.other)
        return n
    if isinstance(s, While):
        return 1 + _stmt_count(s.body)
    if isinstance(s, For):
        n = 1 + _stmt_count(s.body)
        if s.init is not None:
            n += _stmt_count(s.init)
        return n
    return 1


def ast_size(unit: TranslationUnit) -> int:
    """Structural node count: functions + globals + structs + statements.

    This is the reducer's unit of work (expressions sit below its
    operation granularity) and the size quoted for corpus entries."""
    n = len(unit.structs) + len(unit.globals)
    for fn in unit.functions:
        n += 1
        if fn.body is not None:
            n += _stmt_count(fn.body) - 1  # the body block is the function
    return n
