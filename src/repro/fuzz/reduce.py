"""Delta-debugging test-case reducer.

Shrinks a failing generated program to a minimal reproducer while an
*interestingness predicate* (e.g. "the optimistic build still diverges
from O0", see :mod:`repro.fuzz.campaign`) keeps holding.  The reducer
operates at the same structural granularity :func:`repro.fuzz.render.ast_size`
counts — whole statements and whole functions — with five operations:

1. drop helper functions that are no longer referenced;
2. ddmin over every statement list (contiguous chunks, halving
   granularity — Zeller's classic algorithm);
3. hoist the body of a ``for``/``while``/``if`` (or the ``else`` body)
   in place of the construct (removes the control structure but keeps
   its effects as a candidate);
4. drop ``else`` branches;
5. zero out ``printf`` arguments that do not carry the divergence, so
   the def-use chains feeding them become removable.

Every candidate is checked through the predicate on a deep copy; the
predicate is expected to catch compile errors itself (the campaign's
predicates treat *any* exception as "not interesting").  Candidates are
deduplicated by rendered source, so re-testing the same program twice
never burns a trial.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Set

from ..frontend.ast_nodes import (
    Assign,
    Binary,
    Block,
    Call,
    CastExpr,
    Expr,
    ExprStmt,
    For,
    DeclStmt,
    If,
    Index,
    Member,
    Return,
    Stmt,
    Ternary,
    TranslationUnit,
    Unary,
    While,
)
from .render import ast_size, render_unit


@dataclass
class ReductionResult:
    unit: TranslationUnit
    source: str
    initial_size: int
    final_size: int
    trials: int
    rounds: int


# -- AST walking --------------------------------------------------------------

def _sub_exprs(e: Expr) -> Iterator[Expr]:
    if isinstance(e, Unary) and e.operand is not None:
        yield e.operand
    elif isinstance(e, Binary):
        yield e.lhs
        yield e.rhs
    elif isinstance(e, Assign):
        yield e.target
        yield e.value
    elif isinstance(e, Ternary):
        yield e.cond
        yield e.then
        yield e.other
    elif isinstance(e, Call):
        yield from e.args
    elif isinstance(e, Index):
        yield e.base
        yield e.index
    elif isinstance(e, Member):
        yield e.base
    elif isinstance(e, CastExpr):
        yield e.value


def _walk_exprs(e: Optional[Expr]) -> Iterator[Expr]:
    if e is None:
        return
    yield e
    for sub in _sub_exprs(e):
        yield from _walk_exprs(sub)


def _stmt_exprs(s: Stmt) -> Iterator[Expr]:
    if isinstance(s, ExprStmt):
        yield from _walk_exprs(s.expr)
    elif isinstance(s, DeclStmt):
        yield from _walk_exprs(s.init)
        for e in s.init_list or ():
            yield from _walk_exprs(e)
    elif isinstance(s, Block):
        for inner in s.statements:
            yield from _stmt_exprs(inner)
    elif isinstance(s, If):
        yield from _walk_exprs(s.cond)
        yield from _stmt_exprs(s.then)
        if s.other is not None:
            yield from _stmt_exprs(s.other)
    elif isinstance(s, While):
        yield from _walk_exprs(s.cond)
        yield from _stmt_exprs(s.body)
    elif isinstance(s, For):
        if s.init is not None:
            yield from _stmt_exprs(s.init)
        yield from _walk_exprs(s.cond)
        yield from _walk_exprs(s.step)
        yield from _stmt_exprs(s.body)
    elif isinstance(s, Return):
        yield from _walk_exprs(s.value)


def _called_names(unit: TranslationUnit) -> Set[str]:
    names: Set[str] = set()
    for fn in unit.functions:
        if fn.body is not None:
            for e in _stmt_exprs(fn.body):
                if isinstance(e, Call):
                    names.add(e.callee)
    return names


def _blocks_of(s: Stmt) -> Iterator[Block]:
    """Every statement list nested under ``s`` (including ``s`` itself)."""
    if isinstance(s, Block):
        yield s
        for inner in s.statements:
            yield from _blocks_of(inner)
    elif isinstance(s, If):
        yield from _blocks_of(s.then)
        if s.other is not None:
            yield from _blocks_of(s.other)
    elif isinstance(s, (While, For)):
        yield from _blocks_of(s.body)


def _all_blocks(unit: TranslationUnit) -> List[Block]:
    blocks: List[Block] = []
    for fn in unit.functions:
        if fn.body is not None:
            blocks.extend(_blocks_of(fn.body))
    return blocks


# -- the reducer --------------------------------------------------------------

class _Oracle:
    """Trial accounting + source-level dedup around the predicate."""

    def __init__(self, predicate: Callable[[TranslationUnit], bool],
                 max_trials: int):
        self.predicate = predicate
        self.max_trials = max_trials
        self.trials = 0
        self._seen: Set[str] = set()

    def exhausted(self) -> bool:
        return self.trials >= self.max_trials

    def interesting(self, unit: TranslationUnit) -> bool:
        if self.exhausted():
            return False
        try:
            digest = hashlib.sha256(render_unit(unit).encode()).hexdigest()
        except Exception:
            return False
        if digest in self._seen:
            return False
        self._seen.add(digest)
        self.trials += 1
        try:
            return bool(self.predicate(unit))
        except Exception:
            return False


def _ddmin_block(unit: TranslationUnit, block: Block,
                 oracle: _Oracle) -> bool:
    """Minimize one statement list in place; True if anything shrank."""
    shrunk = False
    chunk = max(1, len(block.statements) // 2)
    while chunk >= 1 and not oracle.exhausted():
        i = 0
        progress = False
        while i < len(block.statements):
            saved = block.statements
            candidate = saved[:i] + saved[i + chunk:]
            if len(candidate) == len(saved):
                break
            block.statements = candidate
            if oracle.interesting(unit):
                shrunk = progress = True
                # keep the removal; stay at the same position
            else:
                block.statements = saved
                i += chunk
        if not progress:
            chunk //= 2
    return shrunk


def _drop_unused_functions(unit: TranslationUnit, oracle: _Oracle) -> bool:
    shrunk = False
    for fn in list(unit.functions):
        if fn.name == "main":
            continue
        if fn.name in _called_names(unit):
            continue
        saved = list(unit.functions)
        unit.functions = [f for f in unit.functions if f is not fn]
        if oracle.interesting(unit):
            shrunk = True
        else:
            unit.functions = saved
    return shrunk


def _hoist_structures(unit: TranslationUnit, oracle: _Oracle) -> bool:
    """Try replacing each loop/if with its body, and dropping elses."""
    def as_stmts(body: Stmt) -> List[Stmt]:
        return list(body.statements) if isinstance(body, Block) else [body]

    shrunk = False
    for block in _all_blocks(unit):
        i = 0
        while i < len(block.statements):
            s = block.statements[i]
            replacements: List[List[Stmt]] = []
            if isinstance(s, (While, For)):
                replacements.append(as_stmts(s.body))
            elif isinstance(s, If):
                if s.other is not None:
                    saved_other = s.other
                    s.other = None
                    if oracle.interesting(unit):
                        shrunk = True
                    else:
                        s.other = saved_other
                replacements.append(as_stmts(s.then))
                if s.other is not None:
                    # the interesting behaviour may live in the else
                    replacements.append(as_stmts(s.other))
            hoisted = False
            for replacement in replacements:
                saved = block.statements
                block.statements = saved[:i] + replacement + saved[i + 1:]
                if oracle.interesting(unit):
                    shrunk = hoisted = True
                    break  # re-examine the hoisted statements
                block.statements = saved
            if not hoisted:
                i += 1
    return shrunk


def _literalize_output_args(unit: TranslationUnit, oracle: _Oracle) -> bool:
    """Replace ``printf`` value arguments with ``0.0`` one at a time.

    The checksum epilogue's output arguments are what keep array and
    accumulator declarations alive; zeroing the arguments that do not
    carry the divergence lets the next ddmin round delete their whole
    def-use chains."""
    from ..frontend.ast_nodes import FloatLit, StrLit
    shrunk = False
    for fn in unit.functions:
        if fn.body is None:
            continue
        for block in _blocks_of(fn.body):
            for s in block.statements:
                if not (isinstance(s, ExprStmt) and isinstance(s.expr, Call)
                        and s.expr.callee == "printf"):
                    continue
                for i, arg in enumerate(s.expr.args):
                    if isinstance(arg, (StrLit, FloatLit)):
                        continue
                    s.expr.args[i] = FloatLit(value=0.0)
                    if oracle.interesting(unit):
                        shrunk = True
                    else:
                        s.expr.args[i] = arg
    return shrunk


def reduce_program(unit: TranslationUnit,
                   predicate: Callable[[TranslationUnit], bool],
                   max_trials: int = 600,
                   max_rounds: int = 12) -> ReductionResult:
    """Shrink ``unit`` while ``predicate`` holds; returns the smallest
    interesting program found.  ``unit`` itself is never mutated.

    The caller must ensure ``predicate(unit)`` is True on entry; the
    reducer asserts it (one trial) and returns the input unchanged when
    the assertion fails — a non-reproducing input is not reducible."""
    work = copy.deepcopy(unit)
    initial = ast_size(work)
    oracle = _Oracle(predicate, max_trials)
    if not oracle.interesting(work):
        return ReductionResult(work, render_unit(work), initial, initial,
                               oracle.trials, 0)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        progress = False
        progress |= _drop_unused_functions(work, oracle)
        for block in _all_blocks(work):
            progress |= _ddmin_block(work, block, oracle)
        progress |= _hoist_structures(work, oracle)
        progress |= _literalize_output_args(work, oracle)
        if not progress or oracle.exhausted():
            break
    return ReductionResult(work, render_unit(work), initial, ast_size(work),
                           oracle.trials, rounds)
