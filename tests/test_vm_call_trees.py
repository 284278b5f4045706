"""Call trees against the interpreter.

A function whose code has no SLOW or PRICED op, hands ``regs`` to no
helper, and calls only such functions (no cycle of calls) runs as one
generated Python function that calls its callees' directly
(:class:`~repro.vm.decode._TreeWriter`).  The interpreter enters one
only while folded charges are exact; a tree stops (deoptimizes) at a
block a budget check could fall in, and hands its frames back.  The
op-by-op path is the referee: ``poll=1`` stops every tree at its first
block, and a cycle counter starting at 0.5 keeps every call on the
interpreter, charging op by op.
"""

from __future__ import annotations

import itertools

import pytest

import repro.workloads  # noqa: F401 — registers all variants
from repro.frontend import compile_source
from repro.ir import FunctionType, I64, IRBuilder, Module
from repro.ir.types import IntType
from repro.oraql.compiler import Compiler
from repro.oraql.sequence import sequence_from_pessimistic_set
from repro.vm import Machine, MPIWorld
from repro.vm.decode import UNPLANTED, _wrap_int, binop_fn
from repro.vm.errors import UndefinedBehavior
from repro.workloads.base import get_config, row_names

from test_vm_golden import PESSIMISTIC


def _run(prog, cycles=0.0, poll=None):
    """``prog`` run as ``CompiledProgram.run`` does, every rank's cycle
    counter starting at ``cycles``; ``poll`` polls a deadline that never
    fires every ``poll`` instructions."""
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
            "error": [(type(m.error).__name__, str(m.error))
                      for m in machines if m.error is not None],
            "stdout": "".join(m.output() for m in machines),
            "instructions": sum(m.instructions for m in machines),
            "cycles": max(m.cycles for m in machines),
            "kernel_cycles": kernels,
            "fallbacks": {k: sum(m.fallbacks[k] for m in machines)
                          for k in machines[0].fallbacks}}


def _same(a: dict, b: dict) -> None:
    """``a`` and ``b`` are one outcome, to the bit."""
    for key in ("state", "error", "stdout", "instructions"):
        assert a[key] == b[key], key
    assert b["cycles"].hex() == a["cycles"].hex()
    assert {k: v.hex() for k, v in b["kernel_cycles"].items()} == \
        {k: v.hex() for k, v in a["kernel_cycles"].items()}


@pytest.mark.parametrize("row", row_names())
def test_rows_agree_on_the_tree_and_interpreter_paths(row):
    """Baseline and final programs: the same stdout, state, error,
    instructions, cycles and kernel cycles whether calls run as trees,
    op by op, or charging op by op."""
    compiler = Compiler()
    cfg = get_config(row)
    final = sequence_from_pessimistic_set(PESSIMISTIC[row])
    for prog in (compiler.compile(cfg),
                 compiler.compile(cfg, sequence=final, oraql_enabled=True)):
        tree = _run(prog)
        assert tree["state"] == ["done"] * cfg.nranks
        stepped = _run(prog, poll=1)
        _same(tree, stepped)
        half = _run(prog, cycles=0.5)
        for key in ("state", "error", "stdout", "instructions"):
            assert half[key] == tree[key], key
        if tree["cycles"].is_integer():  # no kernel ran at a factor
            assert half["cycles"] - 0.5 == tree["cycles"]
            assert half["kernel_cycles"] == tree["kernel_cycles"]
        assert half["fallbacks"]["budget"] == 0
        assert stepped["fallbacks"]["inexact-charges"] == 0


def test_fallbacks_name_their_reason():
    """XSBench-seq's calls all run as trees; with a poll on every
    instruction each one stops at its first block (``budget``), and
    with a fractional cycle counter none is entered
    (``inexact-charges``)."""
    prog = Compiler().compile(get_config("XSBench-seq"))
    assert _run(prog)["fallbacks"] == {"budget": 0, "inexact-charges": 0}
    # init_grids once; per lookup rn twice, pick_mat (and its five
    # dist_* calls), calculate_xs (and its four calls): each call from
    # a frame the interpreter runs
    calls = 1 + 200 * (2 + 1 + 5 + 1 + 4)
    assert _run(prog, poll=1)["fallbacks"] == {
        "budget": calls, "inexact-charges": 0}
    assert _run(prog, cycles=0.5)["fallbacks"] == {
        "budget": 0, "inexact-charges": calls}


def test_probe_runs_take_no_fallback(monkeypatch):
    """No run of an XSBench-seq session leaves the tree path."""
    from repro.oraql import compiler as compiler_module
    from repro.oraql.driver import ProbingDriver

    machines = []

    class Recorded(Machine):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            machines.append(self)

    monkeypatch.setattr(compiler_module, "Machine", Recorded)
    report = ProbingDriver(get_config("XSBench-seq")).run()
    assert report.tests_run >= 3 and len(machines) >= 3
    assert all(m.fallbacks == {"budget": 0, "inexact-charges": 0}
               for m in machines)


def test_programs_sharing_code_call_their_own_callees():
    """XSBench-seq's baseline and pessimistic final programs, compiled
    by one Compiler, share ``pick_mat``'s code but not ``dist_clamp``'s:
    each program's ``pick_mat`` tree calls its own ``dist_clamp``, and
    each program runs as it does on a Compiler of its own."""
    cfg = get_config("XSBench-seq")
    final = sequence_from_pessimistic_set(PESSIMISTIC["XSBench-seq"])
    compiler = Compiler()
    progs = [compiler.compile(cfg),
             compiler.compile(cfg, sequence=final, oraql_enabled=True)]
    alone = [Compiler().compile(cfg),
             Compiler().compile(cfg, sequence=final, oraql_enabled=True)]
    for prog in progs:  # both programs' trees exist before either runs
        for fn in prog.module.functions.values():
            if fn.name == "pick_mat":
                prog.decoded().function(fn, 1).plant()
    for prog, own in zip(progs, alone):
        _same(_run(own), _run(prog))

    def pick_mat(prog):
        fn = prog.module.get_function("pick_mat")
        return prog.decoded().function(fn, 1)

    def callee(prog, name):
        fn = prog.module.get_function(name)
        return prog.decoded().function(fn, len(fn.args))

    base, fin = (pick_mat(p) for p in progs)
    assert base.code is fin.code
    clamps = [callee(p, "dist_clamp") for p in progs]
    assert clamps[0].code is not clamps[1].code
    for df, clamp in zip((base, fin), clamps):
        assert clamp.tree not in (None, UNPLANTED)
        free = dict(zip(df.tree.__code__.co_freevars,
                        (c.cell_contents for c in df.tree.__closure__)))
        slot = next(s for s, v in enumerate(df.template) if v is clamp)
        assert free[f"f{slot}"] is clamp.tree


# -- small programs --------------------------------------------------------------

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
    return (m.state, m.instructions, m.cycles.hex(), type(m.error).__name__,
            str(m.error), m.output()), m


def _paths_agree(module, every_limit=True):
    """The tree path, the op-by-op path and the path charging op by op
    from 0.5 agree on the whole run and on every step limit; returns
    the whole run's outcome and machine."""
    whole, m = _outcome(module)
    decoded = m.decoded
    assert whole == _outcome(module, poll=1, decoded=decoded)[0]
    for limit in range(whole[1] + 1 if every_limit else 0):
        got = _outcome(module, limit, decoded=decoded)[0]
        assert got == _outcome(module, limit, poll=1,
                               decoded=decoded)[0], limit
        half = _outcome(module, limit, cycles=0.5, decoded=decoded)[0]
        assert half[:2] + half[3:] == got[:2] + got[3:], limit
        assert float.fromhex(half[2]) - 0.5 == float.fromhex(got[2])
    return whole, m


def _trees(m) -> dict:
    """Each called function's tree, or None, by name."""
    return {df.fn.name: df.tree for df in m.decoded._functions.values()
            if df.fn.name != "main"}


NESTED = """
long leaf(long *p, long n) {
  long s = 0;
  for (long i = 0; i < n; i++) { s = s + p[i] * (i + 1); }
  return s;
}
long mid(long x) {
  long a[4];
  long t = 0;
  for (long k = 0; k < 4; k++) { a[k] = x + k; }
  for (long k = 0; k < 2; k++) { t = t + leaf(a, 4 - k); }
  return t;
}
long top(long m) {
  long u = 0;
  for (long j = 0; j < m; j++) { u = u + mid(j) % 1000; }
  return u;
}
int main() {
  printf("%ld\\n", top(3));
  return 0;
}
"""


def test_nested_trees_stop_on_every_step_limit_and_poll():
    """Three levels of trees with loops at every level: a step limit on
    every instruction, and a wall-clock poll every 2..60 instructions,
    give the op-by-op outcome; a poll that does not fire stops the
    trees and the interpreter goes on from their frames."""
    module = compile_source(NESTED)
    whole, m = _paths_agree(module)
    assert whole[0] == "done" and whole[5] == "132\n"
    assert all(t not in (None, UNPLANTED) for t in _trees(m).values())
    assert set(_trees(m)) == {"top", "mid", "leaf"}
    for poll in range(2, 61):
        polled, pm = _outcome(module, poll=poll, decoded=m.decoded)
        assert polled == whole, poll
        assert pm.fallbacks["budget"] >= 1
        fired = _outcome(module, poll=poll, wall_clock=-1.0,
                         decoded=m.decoded)[0]
        limited = _outcome(module, max_steps=poll - 1, poll=1,
                           decoded=m.decoded)[0]
        assert fired[3] == "WallClockExceeded"
        assert fired[1:3] == limited[1:3] == (poll, limited[2])


def test_srem_by_zero_in_a_depth_two_callee():
    module = compile_source("""
    long leaf(long a, long b) { long q = a % b; return q + 1; }
    long mid(long a, long b) {
      long t[2];
      t[0] = a;
      t[1] = leaf(a, b);
      return t[0] + t[1];
    }
    int main() {
      long s = 0;
      for (long i = 3; i >= 0; i = i - 1) { s = s + mid(10, i); }
      printf("%ld\\n", s);
      return 0;
    }
    """)
    whole, m = _paths_agree(module)
    assert whole[0] == "trapped"
    assert whole[3:5] == ("UndefinedBehavior", "srem by zero")
    assert _trees(m)["mid"] not in (None, UNPLANTED)


def test_out_of_bounds_store_in_a_depth_two_callee():
    module = compile_source("""
    void put(long *p, long i, long v) { p[i] = v; }
    long fill(long *p, long n) {
      for (long i = 0; i < n; i++) { put(p, i * 4096, i); }
      return p[0];
    }
    int main() {
      long a[4];
      printf("%ld\\n", fill(a, 6));
      return 0;
    }
    """)
    whole, m = _paths_agree(module)
    assert whole[0] == "trapped" and whole[3] == "MemoryTrap"
    assert "outside memory" in whole[4]
    assert _trees(m)["fill"] not in (None, UNPLANTED)


def test_missing_argument_in_a_depth_two_callee():
    """``mid`` calls ``leaf(a, b)`` with one argument: reading ``b`` is
    the interpreter's ``use of unevaluated value`` trap."""
    mod = Module("t")
    leaf = mod.add_function(FunctionType(I64, [I64, I64]), "leaf")
    b = IRBuilder(leaf.add_block("entry"))
    x = b.add(leaf.args[0], b.i64(1), "x")
    b.ret(b.add(x, leaf.args[1], "y"))
    mid = mod.add_function(FunctionType(I64, [I64]), "mid")
    b = IRBuilder(mid.add_block("entry"))
    b.ret(b.call(leaf, [mid.args[0]], name="r"))
    main = mod.add_function(FunctionType(I64, []), "main")
    b = IRBuilder(main.add_block("entry"))
    first = b.mul(b.i64(6), b.i64(7), "first")
    b.ret(b.call(mid, [first], name="r"))
    whole, m = _paths_agree(mod)
    assert whole[0] == "trapped"
    assert whole[4] == f"use of unevaluated value {leaf.args[1].short()} " \
                       "in @leaf"
    assert _trees(m)["mid"] not in (None, UNPLANTED)


def test_unset_read_in_a_depth_two_callee():
    """``leaf`` writes ``%x`` on iteration 4 of its loop and reads it
    on iteration 3: the tree's local holds UNSET there, and the trap is
    the interpreter's ``use of unevaluated value``."""
    mod = Module("t")
    leaf = mod.add_function(FunctionType(I64, []), "leaf")
    entry, head, use, mid, define, latch, exit_ = (
        leaf.add_block(n) for n in
        ("entry", "head", "use", "mid", "define", "latch", "exit"))
    b = IRBuilder(entry)
    b.br(head)
    b.position_at_end(head)
    i = b.phi(I64, "i")
    b.cond_br(b.icmp("eq", i, b.i64(3)), use, mid)
    b.position_at_end(mid)
    b.cond_br(b.icmp("eq", i, b.i64(4)), define, latch)
    b.position_at_end(define)
    x = b.mul(i, b.i64(2), "x")
    b.br(latch)
    b.position_at_end(use)
    b.add(x, b.i64(1), "y")
    b.br(latch)
    b.position_at_end(latch)
    nxt = b.add(i, b.i64(1), "next")
    i.add_incoming(b.i64(0), entry)
    i.add_incoming(nxt, latch)
    b.cond_br(b.icmp("slt", nxt, b.i64(6)), head, exit_)
    b.position_at_end(exit_)
    b.ret(b.i64(0))
    caller = mod.add_function(FunctionType(I64, []), "mid")
    b = IRBuilder(caller.add_block("entry"))
    b.ret(b.call(leaf, [], name="r"))
    main = mod.add_function(FunctionType(I64, []), "main")
    b = IRBuilder(main.add_block("entry"))
    b.ret(b.call(caller, [], name="r"))
    whole, m = _paths_agree(mod)
    assert whole[0] == "trapped"
    assert whole[4] == "use of unevaluated value %x in @leaf"
    assert _trees(m)["mid"] not in (None, UNPLANTED)


def test_recursion_and_runtime_calls_stay_on_the_interpreter():
    """A cycle of calls is no tree, and neither is a caller of a
    function on one, or of a function that calls ``printf``: they run
    as frames."""
    module = compile_source("""
    long fact(long n) { if (n < 2) { return 1; } return n * fact(n - 1); }
    long twice(long n) { return fact(n) * 2; }
    void say(long x) { printf("%ld\\n", x); }
    long loud(long x) { say(x); return x + 1; }
    long quiet(long x) { return x * 3; }
    int main() {
      printf("%ld %ld\\n", fact(10), twice(5));
      printf("%ld\\n", loud(4) + quiet(2));
      return 0;
    }
    """)
    whole, m = _paths_agree(module, every_limit=False)
    assert whole[5] == "3628800 240\n4\n11\n"
    trees = _trees(m)
    assert {name for name, t in trees.items() if t is None} == {
        "fact", "twice", "say", "loud"}
    assert trees["quiet"] not in (None, UNPLANTED)
    assert m.fallbacks == {"budget": 0, "inexact-charges": 0}


def test_mutual_recursion_stays_on_the_interpreter():
    """``even`` and ``odd`` call each other; ``main`` calls ``even(7)``
    through a leaf that is a tree."""
    mod = Module("t")
    even = mod.add_function(FunctionType(I64, [I64]), "even")
    odd = mod.add_function(FunctionType(I64, [I64]), "odd")
    for fn, other, zero in ((even, odd, 1), (odd, even, 0)):
        entry, done, more = (fn.add_block(n) for n in ("entry", "done",
                                                      "more"))
        b = IRBuilder(entry)
        n = fn.args[0]
        b.cond_br(b.icmp("eq", n, b.i64(0)), done, more)
        b.position_at_end(done)
        b.ret(b.i64(zero))
        b.position_at_end(more)
        b.ret(b.call(other, [b.sub(n, b.i64(1), "m")], name="r"))
    leaf = mod.add_function(FunctionType(I64, [I64]), "seven")
    b = IRBuilder(leaf.add_block("entry"))
    b.ret(b.add(leaf.args[0], b.i64(7), "s"))
    main = mod.add_function(FunctionType(I64, []), "main")
    b = IRBuilder(main.add_block("entry"))
    b.ret(b.call(even, [b.call(leaf, [b.i64(0)], name="x")], name="r"))
    whole, m = _paths_agree(mod)
    assert (whole[0], m.retval) == ("done", 0)
    trees = _trees(m)
    assert trees["even"] is None and trees["odd"] is None
    assert trees["seven"] not in (None, UNPLANTED)


# -- integer division ------------------------------------------------------------

def _old_sdiv(a, b, bits):
    if b == 0:
        raise UndefinedBehavior("sdiv by zero")
    q = abs(a) // abs(b)
    return _wrap_int(-q if (a < 0) != (b < 0) else q, bits)


def _old_srem(a, b, bits):
    if b == 0:
        raise UndefinedBehavior("srem by zero")
    q = abs(a) // abs(b)
    q = -q if (a < 0) != (b < 0) else q
    return _wrap_int(a - q * b, bits)


def _old_udiv(a, b, bits):
    if b == 0:
        raise UndefinedBehavior("udiv by zero")
    mask = (1 << bits) - 1
    return _wrap_int((a & mask) // (b & mask), bits)


def _old_urem(a, b, bits):
    if b == 0:
        raise UndefinedBehavior("urem by zero")
    mask = (1 << bits) - 1
    return _wrap_int((a & mask) % (b & mask), bits)


OLD = {"sdiv": _old_sdiv, "srem": _old_srem, "udiv": _old_udiv,
       "urem": _old_urem}


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
@pytest.mark.parametrize("op", sorted(OLD))
def test_inline_division_matches_the_helpers(op, bits):
    """Every sign combination, a zero divisor and INT_MIN / -1 give the
    old helpers' result or trap text."""
    low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    values = [low, low + 1, -7, -2, -1, 0, 1, 2, 7, high - 1, high]
    fn = binop_fn(op, IntType(bits))
    for a, b in itertools.product(values, repeat=2):
        try:
            want = OLD[op](a, b, bits)
        except UndefinedBehavior as e:
            with pytest.raises(UndefinedBehavior) as got:
                fn(a, b)
            assert str(got.value) == str(e) == f"{op} by zero"
            continue
        assert fn(a, b) == want, (a, b)
    if op == "sdiv":
        assert fn(low, -1) == low  # wraps
