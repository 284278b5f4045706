"""MiniC abstract syntax tree."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# -- types (syntactic) ---------------------------------------------------------

@dataclass
class CType:
    """A MiniC type expression: base name + pointer depth + array dims."""

    base: str                       # "int" | "double" | ... | "struct X"
    pointers: int = 0
    array_dims: Tuple[int, ...] = ()
    restrict: bool = False
    const: bool = False

    def __str__(self) -> str:
        s = self.base + "*" * self.pointers
        for d in self.array_dims:
            s += f"[{d}]"
        return s


# -- expressions ------------------------------------------------------------

@dataclass
class Expr:
    line: int = 0


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class FloatLit(Expr):
    value: float = 0.0


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    op: str = ""                    # "-" "!" "~" "&" "*" "++" "--" "p++" "p--"
    operand: Optional[Expr] = None


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Optional[Expr] = None
    rhs: Optional[Expr] = None


@dataclass
class Assign(Expr):
    op: str = "="                  # "=", "+=", ...
    target: Optional[Expr] = None
    value: Optional[Expr] = None


@dataclass
class Ternary(Expr):
    cond: Optional[Expr] = None
    then: Optional[Expr] = None
    other: Optional[Expr] = None


@dataclass
class Call(Expr):
    callee: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Member(Expr):
    base: Optional[Expr] = None
    name: str = ""
    arrow: bool = False


@dataclass
class CastExpr(Expr):
    type: Optional[CType] = None
    value: Optional[Expr] = None


@dataclass
class SizeofExpr(Expr):
    type: Optional[CType] = None


# -- statements -----------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class DeclStmt(Stmt):
    type: Optional[CType] = None
    name: str = ""
    init: Optional[Expr] = None
    init_list: Optional[List[Expr]] = None


@dataclass
class Block(Stmt):
    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    other: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Optional[Stmt] = None
    #: set by a preceding "#pragma omp parallel for"
    omp_parallel: bool = False


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# -- top level -----------------------------------------------------------------

@dataclass
class Param:
    type: CType
    name: str


@dataclass
class FunctionDef:
    ret: CType
    name: str
    params: List[Param]
    body: Optional[Block]           # None = declaration
    is_kernel: bool = False        # __global__
    line: int = 0


@dataclass
class GlobalDecl:
    type: CType
    name: str
    init: Optional[Expr] = None
    init_list: Optional[List[Expr]] = None
    line: int = 0


@dataclass
class StructDef:
    name: str
    fields: List[Param] = field(default_factory=list)
    line: int = 0


@dataclass
class TranslationUnit:
    name: str
    structs: List[StructDef] = field(default_factory=list)
    globals: List[GlobalDecl] = field(default_factory=list)
    functions: List[FunctionDef] = field(default_factory=list)
