"""Exact VM accounting, pinned: the interpreter's reference results.

Every row of the Fig. 4 matrix is run twice — the baseline program
(ORAQL off) and the final program (the row's pessimistic set) — and the
run is pinned on its state, error class, instruction count, cycle and
per-kernel cycle totals (as ``float.hex``, so a reordered float sum
shows) and the SHA-256 of its stdout.  Trap cases pin their exact
counts and error messages: the step limit, a wild pointer,
``unreachable``, ``sdiv`` by zero, ``abort``, mismatched MPI
collectives, a blocking MPI call inside an OpenMP region, a use of an
unevaluated value, a phi without an incoming value, vector loads and
stores that straddle the break, and vector lane indices out of range.

Any interpreter change must leave ``tests/goldens/vm_runs.json``
unchanged.  Regenerate it only for a change that is meant to alter VM
results (``pytest tests/test_vm_golden.py --update-goldens``) and review
the diff.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.frontend import compile_source
from repro.ir import FunctionType, I64, IRBuilder, Module
from repro.ir.types import F32, F64, I32, ArrayType, VectorType, ptr
from repro.ir.values import ConstantFloat
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import sequence_from_pessimistic_set
from repro.vm import Machine, MPIWorld, VMError
from repro.workloads.base import get_config, row_names

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "vm_runs.json")


def _load() -> dict:
    if not os.path.exists(GOLDEN):
        return {"rows": {}, "traps": {}}
    with open(GOLDEN) as f:
        return json.load(f)


def _check(request, section: str, name: str, got: dict) -> None:
    """Compare ``got`` with the golden entry; ``--update-goldens``
    rewrites that entry instead."""
    data = _load()
    if request.config.getoption("--update-goldens"):
        data.setdefault(section, {})[name] = got
        with open(GOLDEN, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
        return
    expected = data.get(section, {}).get(name)
    assert expected is not None, (
        f"no golden for {section}/{name} — run 'pytest "
        f"tests/test_vm_golden.py --update-goldens' to create it")
    assert got == expected


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_fields(r) -> dict:
    return {
        "state": r.state,
        "error_kind": r.error_kind,
        "error": r.error,
        "instructions": r.instructions,
        "cycles": float(r.cycles).hex(),
        "kernel_cycles": {k: float(v).hex()
                          for k, v in sorted(r.kernel_cycles.items())},
        "stdout_sha256": _sha(r.stdout),
    }


def _machine_fields(m: Machine) -> dict:
    return {
        "state": m.state,
        "error_kind": type(m.error).__name__ if m.error else None,
        "error": str(m.error) if m.error else None,
        "instructions": m.instructions,
        "cycles": float(m.cycles).hex(),
        "stdout": m.output(),
    }


# -- the 16 rows -----------------------------------------------------------

#: each row's pessimistic set (from bench/expected.json): the final
#: program is compiled with exactly these queries answered may-alias
PESSIMISTIC = {
    "GridMini-offload": [], "LULESH-mpi": [70], "LULESH-openmp": [88, 285],
    "LULESH-seq": [26, 70], "MiniFE-openmp": [0], "MiniGMG-ompif": [],
    "MiniGMG-omptask": [], "MiniGMG-sse": [], "Quicksilver-openmp": [],
    "TestSNAP-fortran": [2, 3, 32], "TestSNAP-kokkos-cuda": [],
    "TestSNAP-openmp": [28, 52], "TestSNAP-seq": [],
    "XSBench-cuda-thrust": [0, 1, 2, 3], "XSBench-openmp": [0, 1, 2, 3],
    "XSBench-seq": [0, 1, 2, 3],
}


def test_pessimistic_table_covers_every_row():
    assert sorted(PESSIMISTIC) == sorted(row_names())


@pytest.mark.parametrize("row", sorted(PESSIMISTIC))
def test_row_runs_match_golden(request, row):
    cfg = get_config(row)
    compiler = Compiler()
    baseline = compiler.compile(cfg)
    final = compiler.compile(
        cfg, sequence=sequence_from_pessimistic_set(PESSIMISTIC[row]),
        oraql_enabled=True)
    _check(request, "rows", row, {
        "final_exe_hash": final.exe_hash,
        "baseline": _run_fields(baseline.run()),
        "final": _run_fields(final.run()),
    })


# -- traps -------------------------------------------------------------------

def _run_source(src: str, **kw) -> Machine:
    m = Machine(compile_source(src), **kw)
    m.start("main")
    m.run_to_completion()
    return m


TRAP_SOURCES = {
    "step-limit": ("int main() { while (1 < 2) { } return 0; }",
                   {"max_steps": 10_000}),
    "wild-pointer": ("""
        int main() {
          double s = 0.0;
          for (int i = 0; i < 5; i++) { s = s + i; }
          printf("%.1f\\n", s);
          double* p = (double*)0;
          p[3] = s;
          return 0;
        }""", {}),
    "sdiv-by-zero": ("""
        int div(int a, int b) { return a / b; }
        int main() {
          printf("%d\\n", div(7, 2));
          printf("%d\\n", div(7, 0));
          return 0;
        }""", {}),
    "abort": ("""
        int main() {
          printf("before\\n");
          abort();
          return 0;
        }""", {}),
}


@pytest.mark.parametrize("case", sorted(TRAP_SOURCES))
def test_trap_matches_golden(request, case):
    src, kw = TRAP_SOURCES[case]
    m = _run_source(src, **kw)
    assert m.state == "trapped"
    _check(request, "traps", case, _machine_fields(m))


def test_step_limit_counts_the_exceeding_instruction():
    src, kw = TRAP_SOURCES["step-limit"]
    m = _run_source(src, **kw)
    assert m.instructions == 10_001


def _ir_main(build) -> Machine:
    """A hand-built ``i64 main()`` (no verifier) run on the VM."""
    mod = Module("t")
    fn = mod.add_function(FunctionType(I64, []), "main")
    build(fn, IRBuilder(fn.add_block("entry")))
    m = Machine(mod)
    m.start("main")
    m.run_to_completion()
    return m


def _unreachable(fn, b):
    x = b.fadd(b.f64(1.0), b.f64(2.0))
    b.fmul(x, x)
    b.unreachable()


def _unevaluated(fn, b):
    # %v is defined on one arm only and used after the join
    then, other, join = (fn.add_block(n) for n in ("then", "other", "join"))
    b.cond_br(b.i1(False), then, other)
    b.position_at_end(then)
    v = b.add(b.i64(1), b.i64(2), "v")
    b.br(join)
    b.position_at_end(other)
    b.br(join)
    b.position_at_end(join)
    b.ret(b.add(v, b.i64(1)))


def _phi_no_incoming(fn, b):
    loop, exit_ = fn.add_block("loop"), fn.add_block("exit")
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I64, "i")
    i.add_incoming(b.i64(0), fn.entry)
    nxt = b.add(i, b.i64(1))
    b.cond_br(b.icmp("slt", nxt, b.i64(3)), loop, exit_)
    b.position_at_end(exit_)
    b.ret(nxt)


def _phi_swap(fn, b):
    # parallel phi semantics: a and b swap on every back edge
    loop, exit_ = fn.add_block("loop"), fn.add_block("exit")
    b.br(loop)
    b.position_at_end(loop)
    pa, pb, pn = b.phi(I64, "a"), b.phi(I64, "b"), b.phi(I64, "n")
    nn = b.add(pn, b.i64(1))
    pa.add_incoming(b.i64(1), fn.entry)
    pa.add_incoming(pb, loop)
    pb.add_incoming(b.i64(2), fn.entry)
    pb.add_incoming(pa, loop)
    pn.add_incoming(b.i64(0), fn.entry)
    pn.add_incoming(nn, loop)
    b.cond_br(b.icmp("slt", nn, b.i64(5)), loop, exit_)
    b.position_at_end(exit_)
    b.ret(b.add(b.mul(pa, b.i64(10)), pb))


def _entry_phi(fn, b):
    # an entry-block phi runs as an instruction on entry and has no
    # value until a back edge assigns it
    exit_ = fn.add_block("exit")
    p = b.phi(I64, "p")
    x = b.add(p, b.i64(1), "x")
    p.add_incoming(x, fn.entry)
    b.cond_br(b.icmp("slt", x, b.i64(3)), fn.entry, exit_)
    b.position_at_end(exit_)
    b.ret(x)


def _lane_index(op, index):
    # a lane index outside [0, 4) is undefined behaviour, never Python's
    # IndexError or a negative index counting from the end
    def build(fn, b):
        v = b.splat(b.i64(3), 4, "v")
        x = b.add(b.i64(1), b.i64(2), "x")
        if op == "extractelement":
            e = b.extractelement(v, index, "e")
        else:
            e = b.extractelement(b.insertelement(v, x, index, "w"), 0, "e")
        b.ret(b.add(e, x))
    return build


IR_CASES = {
    "extractelement-index-4": _lane_index("extractelement", 4),
    "extractelement-index-minus-1": _lane_index("extractelement", -1),
    "insertelement-index-4": _lane_index("insertelement", 4),
    "insertelement-index-minus-1": _lane_index("insertelement", -1),
    "unreachable": _unreachable,
    "unevaluated-value": _unevaluated,
    "phi-no-incoming": _phi_no_incoming,
    "phi-swap": _phi_swap,
    "entry-phi": _entry_phi,
}


@pytest.mark.parametrize("case", sorted(IR_CASES))
def test_ir_case_matches_golden(request, case):
    m = _ir_main(IR_CASES[case])
    fields = _machine_fields(m)
    fields["retval"] = m.retval
    _check(request, "traps", case, fields)


def test_missing_argument_matches_golden(request):
    # a frame entered with fewer arguments than parameters
    mod = Module("t")
    fn = mod.add_function(FunctionType(I64, [I64, I64]), "f", ["a", "b"])
    b = IRBuilder(fn.add_block("entry"))
    b.ret(b.add(b.mul(fn.args[0], b.i64(2)), fn.args[1]))
    m = Machine(mod)
    m.start("f", (5,))
    m.run_to_completion()
    assert str(m.error) == "use of unevaluated value %b in @f"
    _check(request, "traps", "missing-argument", _machine_fields(m))


def test_unevaluated_and_missing_phi_messages():
    m = _ir_main(_unevaluated)
    assert str(m.error) == "use of unevaluated value %v in @main"
    m = _ir_main(_phi_no_incoming)
    assert str(m.error) == "phi %i has no incoming for loop"
    assert _ir_main(_phi_swap).retval == 12  # swapped an even number of times


# -- vectors -------------------------------------------------------------------
#
# ``main`` accesses a vector at ``@g``, the only allocation, so the
# image's break is the end of ``@g``: a ``<4 x T>`` over a ``[3 x T]``
# has its last lane past the break.


def _vector_main(lane, array_lanes, body) -> Machine:
    mod = Module("t")
    g = mod.add_global(ArrayType(lane, array_lanes), "g")
    fn = mod.add_function(FunctionType(I64, []), "main")
    b = IRBuilder(fn.add_block("entry"))
    p = b.cast("bitcast", g, ptr(VectorType(lane, 4)), "p")
    body(b, p)
    b.ret(b.i64(0))
    m = Machine(mod)
    m.start("main")
    try:
        m.run_to_completion()
        raised = None
    except Exception as e:  # not a VMError: it escapes Machine.run
        raised = f"{type(e).__name__}: {e}"
    m.raised = raised
    m.image = m.memory.data[m.globals[g]:m.memory.brk].hex()
    return m


def _splat(b, value):
    return b.splat(value, 4, "v")


VECTOR_CASES = {
    "vector-load-straddles-brk": (F64, 3, lambda b, p: b.load(p, "x")),
    "vector-store-straddles-brk": (
        F64, 3, lambda b, p: b.store(_splat(b, b.f64(1.5)), p)),
    "vector-i32-store-straddles-brk": (
        I32, 3, lambda b, p: b.store(_splat(b, b.i32(-7)), p)),
    # lane 0 is stored before lane 1 fails to pack
    "vector-f32-store-overflows": (F32, 4, lambda b, p: b.store(
        b.insertelement(_splat(b, ConstantFloat(F32, 2.5)),
                        ConstantFloat(F32, 1e300), 1, "w"), p)),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_vector_case_matches_golden(request, case):
    m = _vector_main(*VECTOR_CASES[case])
    fields = _machine_fields(m)
    fields["raised"] = m.raised
    fields["image"] = m.image
    _check(request, "traps", case, fields)


# -- MPI -----------------------------------------------------------------------

MPI_SOURCES = {
    "mpi-mismatched-collectives": """
        int main() {
          printf("rank %d\\n", mpi_comm_rank());
          if (mpi_comm_rank() == 0) { mpi_barrier(); }
          else { double x = mpi_allreduce_sum_f64(1.0); }
          return 0;
        }""",
    "mpi-blocking-in-omp-region": """
        int main() {
          double a[8];
          #pragma omp parallel for
          for (int i = 0; i < 8; i++) { a[i] = i; mpi_barrier(); }
          printf("%.1f\\n", a[7]);
          return 0;
        }""",
}


@pytest.mark.parametrize("case", sorted(MPI_SOURCES))
def test_mpi_case_matches_golden(request, case):
    mod = compile_source(MPI_SOURCES[case])
    machines = [Machine(mod) for _ in range(2)]
    for m in machines:
        m.start("main")
    try:
        MPIWorld(machines).run()
        world_error = None
    except VMError as e:
        # the message ends in a set of tags, whose order varies with the
        # string hash seed
        world_error = f"{type(e).__name__}: {str(e).split(':')[0]}"
    _check(request, "traps", case, {
        "world_error": world_error,
        "ranks": [_machine_fields(m) for m in machines],
    })
