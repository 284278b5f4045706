"""Folded charges and promoted registers against the op-by-op path.

Generated runs and loops charge each block's cycles once, when that sum
is provably the float the op-by-op charges reach (``gpu`` is 1.0 and
``cycles`` an integer well below 2**53), and loops keep the slots they
name in Python locals.  The op-by-op path is the referee: a machine
whose cycle counter starts at 0.5 charges op by op everywhere, and one
whose wall-clock poll falls on every instruction runs each op as its
own one-op run.  Counts, cycles, traps and output must match.
"""

from __future__ import annotations

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.frontend import compile_source
from repro.ir import FunctionType, I64, IRBuilder, Module
from repro.ir.types import F64, StructType
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import sequence_from_pessimistic_set
from repro.vm import Machine, MPIWorld
from repro.vm.decode import FUSED, LOOP
from repro.workloads.base import get_config, row_names

from test_vm_golden import PESSIMISTIC

#: the rows whose programs launch GPU kernels
GPU_ROWS = ["GridMini-offload", "TestSNAP-kokkos-cuda", "XSBench-cuda-thrust"]
CPU_ROWS = sorted(set(row_names()) - set(GPU_ROWS))


def _final(row):
    return Compiler().compile(
        get_config(row), sequence=sequence_from_pessimistic_set(
            PESSIMISTIC[row]), oraql_enabled=True)


def _run(prog, cycles=0.0, poll=None):
    """``prog`` run as ``CompiledProgram.run`` does, every rank's cycle
    counter starting at ``cycles``; ``poll`` polls a deadline that
    never fires every ``poll`` instructions."""
    cfg = prog.config
    machines = [Machine(prog.module, kernel_info=prog.kernel_info,
                        num_threads=cfg.num_threads, argv=cfg.argv,
                        decoded=prog.decoded(),
                        wall_clock=None if poll is None else 1e9)
                for _ in range(cfg.nranks)]
    for m in machines:
        m.cycles = cycles
        if poll is not None:
            m.WALL_CLOCK_POLL = poll
        m.start(cfg.entry)
    if len(machines) > 1:
        MPIWorld(machines).run()
    else:
        machines[0].run_to_completion()
    kernels = {}
    for m in machines:
        for k, v in m.kernel_cycles.items():
            kernels[k] = kernels.get(k, 0.0) + v
    return {"state": [m.state for m in machines],
            "stdout": "".join(m.output() for m in machines),
            "instructions": sum(m.instructions for m in machines),
            "cycles": max(m.cycles for m in machines),
            "kernel_cycles": {k: v.hex() for k, v in sorted(kernels.items())}}


def _charged(prog) -> int:
    """How many of the program's runs and loops have generated their
    op-by-op variant."""
    codes = list(prog.shared_code.values()) + prog.decoded()._private
    return sum(1 for code in codes for ops in code.blocks for op in ops
               if op is not None and op[0] in (FUSED, LOOP) and op[-1])


@pytest.mark.parametrize("row", CPU_ROWS)
def test_cpu_row_folds_exactly(row):
    prog = _final(row)
    folded = _run(prog)
    assert folded["state"] == ["done"] * prog.config.nranks
    assert folded["cycles"].is_integer()
    assert _charged(prog) == 0  # a CPU row never compiles the other path
    charged = _run(prog, cycles=0.5)
    assert _charged(prog) > 0
    assert charged["stdout"] == folded["stdout"]
    assert charged["state"] == folded["state"]
    assert charged["instructions"] == folded["instructions"]
    assert charged["cycles"] - 0.5 == folded["cycles"]


@pytest.mark.parametrize("row", GPU_ROWS)
def test_gpu_row_matches_the_op_by_op_path(row):
    """Inside a kernel whose occupancy factor is not 1.0, and in host
    code after it (``cycles`` is then no longer an integer), runs and
    loops charge op by op: cycles and per-kernel cycles are the same
    floats as when every op runs on its own."""
    prog = _final(row)
    got = _run(prog)
    assert got == _run(prog, poll=1)
    assert got["kernel_cycles"]
    if row != "XSBench-cuda-thrust":  # its kernels run at factor 1.0
        assert not got["cycles"].is_integer()
        assert _charged(prog) > 0


# -- small programs: every limit, every trap ---------------------------------

def _outcome(module, max_steps=10_000_000, cycles=0.0, poll=None,
             wall_clock=None, decoded=None):
    m = Machine(module, max_steps=max_steps, decoded=decoded,
                wall_clock=(1e9 if poll is not None and wall_clock is None
                            else wall_clock))
    if poll is not None:
        m.WALL_CLOCK_POLL = poll
    m.cycles = cycles
    m.start("main")
    m.run_to_completion()
    return (m.state, m.instructions, m.cycles, type(m.error).__name__,
            str(m.error), m.output())


def _op_by_op(module, max_steps=10_000_000, decoded=None):
    return _outcome(module, max_steps, poll=1, decoded=decoded)


def _assert_paths_agree(module, decoded):
    """The folded path, the op-by-op path and the path charging op by
    op from 0.5 agree on the whole run and on every step limit."""
    whole = _outcome(module, decoded=decoded)
    assert whole == _op_by_op(module, decoded=decoded)
    for limit in range(whole[1] + 1):
        got = _outcome(module, limit, decoded=decoded)
        assert got == _op_by_op(module, limit, decoded=decoded), limit
        half = _outcome(module, limit, cycles=0.5, decoded=decoded)
        assert half[:2] + half[3:] == got[:2] + got[3:], limit
        assert half[2] - 0.5 == got[2], limit
    return whole


def _loop_kinds(decoded):
    return [op for code in decoded._private for ops in code.blocks
            for op in ops if op is not None and op[0] == LOOP]


def _promoted(loop_op) -> bool:
    return any(name[0] == "r" and name[1:].isdigit()
               for name in loop_op[2].__code__.co_varnames)


TRAPS = """
long cut(long *a, long n) {
  long s = 0;
  for (long i = 0; i < n; i++) { s = s + 1000 / a[i] + i * 3; }
  return s;
}
int main() {
  long a[8];
  double x = 0.5;
  for (long i = 0; i < 8; i++) { a[i] = 6 - i; x = x * 1.5 + sqrt(x); }
  long d = a[6] + a[7] + %d;
  printf("%%ld %%f\\n", 7 / d, x);
  printf("%%ld\\n", cut(a, 8));
  return 0;
}
"""


@pytest.mark.parametrize("where, offset, out",
                         [("loop", 3, "3 106.501993\n"), ("run", 1, "")])
def test_trap_inside_a_folded_block_and_every_step_limit(where, offset, out):
    """A division by zero inside a promoted loop (``a[6]`` is 0), or
    inside a straight-line run of ``main`` (``d`` is 0), after a loop
    with a priced intrinsic: the count, the cycles and the text are
    those of the op-by-op path, for the whole run and for a step limit
    on every instruction.  ``cut`` runs as a call tree; a step limit
    inside it stops the tree, and its loop then runs as a LOOP op."""
    module = compile_source(TRAPS % offset)
    first = Machine(module)
    first.start("main")
    first.run_to_completion()
    state, count, cycles, kind, text, got = _assert_paths_agree(
        module, first.decoded)
    assert (state, kind, text, got) == ("trapped", "UndefinedBehavior",
                                        "sdiv by zero", out)
    loops = _loop_kinds(first.decoded)
    assert len(loops) == {"loop": 2, "run": 1}[where]
    assert all(_promoted(op) for op in loops)


def test_wall_clock_polls_inside_promoted_loops():
    """A poll that never fires changes nothing; one that fires traps at
    its instruction with the cycles of a step limit there."""
    module = compile_source(TRAPS % 3)
    whole = _outcome(module)
    for poll in (2, 3, 5, 7, 13, 64):
        assert _outcome(module, poll=poll) == whole
    for poll in range(2, 60):
        fired = _outcome(module, poll=poll, wall_clock=-1.0)
        limited = _op_by_op(module, max_steps=poll - 1)
        assert fired[3] == "WallClockExceeded"
        assert fired[1:3] == limited[1:3] == (poll, limited[2])


def _main_loop():
    """``i64 main()`` with a loop ``head`` -> ``latch`` over ``i`` from 0
    to 5, whose blocks the caller fills in between; returns the module,
    its function, a builder at the end of ``head``, ``i`` and the
    blocks, of which the caller must branch ``head`` (through any
    blocks of its own) to ``latch``."""
    mod = Module("t")
    fn = mod.add_function(FunctionType(I64, []), "main")
    entry, head, latch, exit_ = (fn.add_block(n) for n in
                                 ("entry", "head", "latch", "exit"))
    b = IRBuilder(latch)
    i = IRBuilder(head).phi(I64, "i")
    nxt = b.add(i, b.i64(1), "next")
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(nxt, latch)
    b.cond_br(b.icmp("slt", nxt, b.i64(6)), head, exit_)
    b.position_at_end(head)
    return mod, fn, b, i, (entry, head, latch, exit_)


def _run_main(module):
    m = Machine(module)
    m.start("main")
    m.run_to_completion()
    return m


def test_unset_read_inside_a_promoted_loop():
    """``%x`` is written on iteration 4 only and read by ``sqrt`` on
    iteration 3, whose unscaled charge comes after the check: the
    promoted local holds UNSET there, and the trap's cycles leave out
    the intrinsic's charge, as op by op."""
    mod, fn, b, i, (entry, head, latch, exit_) = _main_loop()
    sqrt = mod.add_function(FunctionType(F64, [F64]), "sqrt")
    sqrt.is_declaration = True
    use, mid, define = (fn.add_block(n) for n in ("use", "mid", "define"))
    b.cond_br(b.icmp("eq", i, b.i64(3)), use, mid)
    b.position_at_end(mid)
    b.cond_br(b.icmp("eq", i, b.i64(4)), define, latch)
    b.position_at_end(define)
    x = b.fmul(b.sitofp(i, F64), b.f64(2.0), "x")
    b.br(latch)
    b.position_at_end(use)
    b.call(sqrt, [x], name="root")
    b.br(latch)
    b.position_at_end(entry)
    b.br(head)
    b.position_at_end(exit_)
    b.ret(b.i64(0))

    m = _run_main(mod)
    assert m.state == "trapped"
    assert str(m.error) == "use of unevaluated value %x in @main"
    loops = _loop_kinds(m.decoded)
    assert len(loops) == 1 and _promoted(loops[0])
    _assert_paths_agree(mod, m.decoded)


def test_error_after_an_intrinsic_charge_counts_it():
    """``fabs`` of a vector raises inside the intrinsic's expression,
    after its unscaled charge: the cycles left behind include that
    charge, as op by op."""
    mod, fn, b, i, (entry, head, latch, exit_) = _main_loop()
    fabs = mod.add_function(FunctionType(F64, [F64]), "fabs")
    fabs.is_declaration = True
    b.position_at_end(entry)
    b.br(head)
    b.position_at_end(head)
    v = b.splat(b.sitofp(i, F64), 2, "v")
    b.call(fabs, [b.select(b.icmp("eq", i, b.i64(4)), v, b.f64(1.0))],
           name="abs")
    b.br(latch)
    b.position_at_end(exit_)
    b.ret(b.i64(0))

    def left(poll):
        m = Machine(mod, wall_clock=None if poll is None else 1e9)
        if poll is not None:
            m.WALL_CLOCK_POLL = poll
        m.start("main")
        with pytest.raises(TypeError):
            m.run()
        return m.instructions, m.cycles.hex(), _loop_kinds(m.decoded)

    count, cycles, loops = left(None)
    assert len(loops) == 1
    assert (count, cycles) == left(1)[:2]


def test_generic_gep_loop_is_not_promoted():
    """A GEP whose struct index is a loop variable hands ``regs`` to a
    helper: its loop keeps every slot in ``regs``, and agrees with the
    op-by-op path."""
    mod, fn, b, i, (entry, head, latch, exit_) = _main_loop()
    record = StructType("rec", [I64, I64, I64])
    b.position_at_end(entry)
    slot = b.alloca(record, name="r")
    for k in range(3):
        b.store(b.i64(10 * (k + 1)), b.gep(slot, [0, k]))
    b.br(head)
    b.position_at_end(head)
    k = b.srem(i, b.i64(3), "k")
    field = b.gep(slot, [0, 0], name="field")
    field.set_operand(2, k)  # no longer a constant
    b.store(b.add(b.load(field, "v"), i), field)
    b.br(latch)
    b.position_at_end(exit_)
    b.ret(b.load(b.gep(slot, [0, 2]), "last"))

    m = _run_main(mod)
    assert (m.state, m.retval) == ("done", 30 + 2 + 5)
    loops = _loop_kinds(m.decoded)
    assert len(loops) == 1 and not _promoted(loops[0])
    _assert_paths_agree(mod, m.decoded)


def test_loop_writes_back_before_the_header_run_takes_over():
    """A loop that a budget check stops hands its registers to the
    header's run through ``regs``: the written-back values carry on."""
    src = """
    int main() {
      long s = 0;
      long t = 1;
      for (long i = 0; i < 40; i++) { s = s + i * t; t = t + 2; }
      printf("%ld %ld\\n", s, t);
      return 0;
    }
    """
    module = compile_source(src)
    whole = _outcome(module)
    assert whole[0] == "done"
    for poll in range(2, 40):
        assert _outcome(module, poll=poll) == whole


def test_folding_needs_integral_costs():
    """A cost table with a cost that is not an integer never folds: every
    run and loop charges op by op."""
    from repro.vm import CostModel

    module = compile_source(TRAPS % 3)
    model = CostModel()
    model.costs["add"] = 1.1
    m = Machine(module, cost_model=model)
    m.start("main")
    m.run_to_completion()
    assert m.decoded.max_charge is None
    ref = Machine(module, cost_model=model, wall_clock=1e9)
    ref.WALL_CLOCK_POLL = 1
    ref.start("main")
    ref.run_to_completion()
    assert (m.instructions, m.cycles.hex(), str(m.error)) \
        == (ref.instructions, ref.cycles.hex(), str(ref.error))
    assert not m.cycles.is_integer()
