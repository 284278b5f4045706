"""The verifier's diagnostics, pinned, and its cost on valid IR.

Each failure class raises one exact message.  Messages are built only
when a check fails, so verifying valid IR never prints an instruction.
"""

import pytest

import repro.ir.printer as printer_mod
import repro.ir.verifier as verifier_mod
from repro.frontend import compile_source
from repro.ir import (
    F64,
    I64,
    VOID,
    ConstantInt,
    FunctionType,
    IRBuilder,
    Module,
    StoreInst,
    VerificationError,
    ptr,
    verify_function,
    verify_module,
)
from repro.ir.instructions import BinaryInst, Instruction
from repro.oraql.compiler import Compiler
from repro.workloads import get_config, row_names


def _fn(ret=VOID, args=(ptr(F64),)):
    fn = Module("t").add_function(FunctionType(ret, list(args)), "f")
    return fn, IRBuilder(fn.add_block("entry"))


def _message(fn) -> str:
    with pytest.raises(VerificationError) as info:
        verify_function(fn)
    return str(info.value)


def _diamond():
    """entry -> (left | right) -> join, with a phi in join."""
    fn, b = _fn(I64, (I64,))
    left, right, join = (fn.add_block(n) for n in ("left", "right", "join"))
    b.cond_br(b.icmp("slt", fn.args[0], b.i64(0)), left, right)
    for bb in (left, right):
        b.position_at_end(bb)
        b.br(join)
    b.position_at_end(join)
    phi = b.phi(I64, "p")
    b.ret(phi)
    return fn, b, phi, (left, right, join)


def test_missing_terminator():
    fn, b = _fn()
    b.load(fn.args[0], "v")
    assert _message(fn) == "@f/entry: missing terminator"


def test_use_before_def():
    fn, b = _fn(F64)
    v = b.load(fn.args[0], "v")
    b.ret(b.fadd(v, v, "w"))
    fn.entry.instructions.remove(v)
    fn.entry.instructions.insert(1, v)
    assert _message(fn) == ("@f/entry: use before def of "
                            "%v = load double, double* %arg0, align 8")


def test_use_of_erased_instruction():
    fn, b = _fn(F64)
    v = b.load(fn.args[0], "v")
    b.ret(b.fadd(v, v, "w"))
    fn.entry.instructions.remove(v)
    assert _message(fn) == ("@f: use of erased instruction load in "
                            "%w = fadd double %v, %v")


def test_phi_not_at_block_head():
    fn, b, phi, (left, right, join) = _diamond()
    phi.add_incoming(b.i64(1), left)
    phi.add_incoming(b.i64(2), right)
    x = BinaryInst("add", fn.args[0], b.i64(1), "x")
    x.parent = join
    join.instructions.insert(0, x)
    assert _message(fn) == "@f/join: phi not at block head"


def test_branch_to_foreign_block():
    fn, b = _fn()
    other, _ = _fn()
    b.br(other.entry)
    assert _message(fn) == "@f/entry: branch to foreign block"


def test_phi_incoming_mismatch_names_the_blocks():
    fn, b, phi, (left, right, join) = _diamond()
    phi.add_incoming(b.i64(1), left)
    phi.add_incoming(b.i64(2), fn.entry)
    assert _message(fn) == ("@f/join: phi incoming blocks [entry, left] "
                            "!= predecessors [left, right]")


def test_load_type_mismatch():
    fn, b = _fn()
    v = b.load(fn.args[0], "v")
    v.type = I64
    b.ret()
    assert _message(fn) == "@f: load type mismatch"


def test_store_type_mismatch():
    fn, b = _fn()
    bad = StoreInst.__new__(StoreInst)
    Instruction.__init__(bad, VOID, [ConstantInt(I64, 1), fn.args[0]])
    bad.is_volatile = False
    fn.entry.append(bad)
    b.ret()
    assert _message(fn) == ("@f: store type mismatch "
                            "(i64 into double*)")


@pytest.fixture(scope="module")
def row_modules():
    """Every row's sources as lowered, and every row's optimized
    program."""
    compiler = Compiler()
    modules = []
    for row in row_names():
        cfg = get_config(row)
        modules += [compile_source(s.text, s.name) for s in cfg.sources]
        modules.append(compiler.compile(cfg).module)
    return modules


def test_valid_ir_formats_no_instruction(row_modules, monkeypatch):
    # recorded as well as raised: the verifier's format_safe would
    # swallow the exception
    formatted = []

    def refuse(inst):
        formatted.append(inst.opcode)
        raise AssertionError(f"formatted {inst.opcode} on valid IR")

    monkeypatch.setattr(verifier_mod, "format_instruction", refuse)
    monkeypatch.setattr(printer_mod, "format_instruction", refuse)
    for module in row_modules:
        verify_module(module)
    assert formatted == []
