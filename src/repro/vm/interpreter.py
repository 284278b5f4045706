"""The IR interpreter: an explicit-stack machine over decoded code.

Running the *optimized* IR is what makes ORAQL's verification real in
this reproduction: a wrong optimistic no-alias answer lets a pass forward
a stale value or delete a live store, and the executed program then
prints a different checksum (or traps / loops), failing verification.

The machine keeps its own frame stack so that:
* instruction counts and cycle costs are exact,
* multiple ranks can be interleaved by the MPI scheduler,
* runaway miscompiles hit a step budget instead of hanging the driver.

It executes functions decoded once by :mod:`repro.vm.decode`: each
straight-line run of ops, with its branch, is one generated function,
and so is each innermost loop of such runs; calls, returns and allocas
are ops the loop in :meth:`Machine._execute` runs itself, and every
other op a specialised handler.  That loop dispatches once per run,
loop, op or handler, and counts and charges in between.

The host recurses only along *call trees*: a call to a function that
never reaches the runtime, and whose callees do not either (no cycle of
calls), runs as one generated Python function that calls its callees'
directly (:meth:`~repro.vm.decode.DecodedFunction.plant`), while folded
charges are exact.  A tree stops at a block that a budget check could
fall in and hands its frames back to the loop, which goes on op by op
from there; :attr:`Machine.fallbacks` counts the calls that took the
interpreter instead, by reason.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..ir.function import Function
from ..ir.module import Module
from ..ir.types import ArrayType, StructType, Type
from ..ir.values import (
    Constant,
    ConstantData,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    GlobalVariable,
)
from .cost_model import CostModel
from .decode import (
    ALLOCA,
    CALL,
    FUSED,
    LOOP,
    PLAIN,
    PRICED,
    RET,
    UNPLANTED,
    DecodedFunction,
    Deopt,
    DecodedModule,
    charged,
    exact_charges,
    steps,
    trap_point,
)
from .errors import (
    DeadlockError,
    StepLimitExceeded,
    VMError,
    WallClockExceeded,
)
from .memory import Memory


class Blocked:
    """Sentinel returned by blocking runtime calls (MPI collectives)."""

    __slots__ = ("tag", "payload")

    def __init__(self, tag: str, payload):
        self.tag = tag
        self.payload = payload


class Frame:
    """One activation: registers copied from the function's template,
    the current block's ops and the index of the next op.  ``ret`` is
    the caller's slot for the result, None for a frame entered by
    :meth:`Machine.start` or :meth:`Machine.call_synchronously`."""

    __slots__ = ("regs", "ops", "index", "ret")

    def __init__(self, entry: list, regs: list, ret: Optional[int]):
        self.regs = regs
        self.ops = entry
        self.index = 0
        self.ret = ret


class Machine:
    """One executing process image (one MPI rank, or the whole program).

    ``decoded`` shares decoded code between images of one module (MPI
    ranks, reruns); it must have been decoded against this machine's
    cost table.  Without it the machine decodes for itself."""

    def __init__(self, module: Module, runtime=None,
                 max_steps: int = 80_000_000,
                 cost_model: Optional[CostModel] = None,
                 kernel_info: Optional[Dict[str, object]] = None,
                 rank: int = 0, nranks: int = 1, num_threads: int = 4,
                 argv: Optional[List[str]] = None,
                 wall_clock: Optional[float] = None,
                 decoded: Optional[DecodedModule] = None):
        from .runtime import Runtime  # local import to avoid cycle

        self.module = module
        self.memory = Memory()
        self.runtime = runtime or Runtime()
        self.cost = cost_model or CostModel()
        if decoded is None:
            decoded = DecodedModule(module, self.cost.costs,
                                    self.cost.intrinsic_costs)
        elif decoded.module is not module \
                or decoded.costs != self.cost.costs \
                or decoded.intrinsic_costs != self.cost.intrinsic_costs:
            raise ValueError("decoded code belongs to another module or "
                             "cost table")
        self.decoded = decoded
        self.kernel_info = kernel_info or {}
        self.max_steps = max_steps
        #: optional per-run wall-clock budget in seconds; armed at
        #: :meth:`run` and polled every ``WALL_CLOCK_POLL`` instructions
        self.wall_clock = wall_clock
        self._deadline: Optional[float] = None
        self.rank = rank
        self.nranks = nranks
        self.num_threads = num_threads
        self.argv = argv or []

        self.frames: List[Frame] = []
        self.stdout: List[str] = []
        self.state = "ready"  # ready | blocked | done | trapped
        self.retval = None
        self.error: Optional[BaseException] = None
        self.blocked: Optional[Blocked] = None
        self.instructions = 0
        self.cycles = 0.0
        self.kernel_cycles: Dict[str, float] = {}
        self.kernel_launches: Dict[str, int] = {}
        #: calls to a function that runs as a call tree which the
        #: interpreter ran instead, by reason: ``budget`` (the tree
        #: stopped at a block a budget check could fall in) or
        #: ``inexact-charges`` (see :func:`~repro.vm.decode.
        #: exact_charges`)
        self.fallbacks: Dict[str, int] = {"budget": 0,
                                          "inexact-charges": 0}
        self._gpu_factor = 1.0  # >1 while executing inside a GPU kernel

        self.globals: Dict[GlobalVariable, int] = {}
        self._init_globals()

    # -- images ------------------------------------------------------------
    def _init_globals(self) -> None:
        # same allocation order as DecodedModule.globals, so the same
        # addresses
        for gv in self.module.globals.values():
            size = gv.value_type.size()
            addr = self.memory.allocate(size, gv.value_type.align())
            self.globals[gv] = addr
            init = gv.initializer
            if init is None:
                continue
            self._write_initializer(addr, gv.value_type, init)

    def _write_initializer(self, addr: int, ty: Type, init: Constant) -> None:
        if isinstance(init, ConstantInt):
            self.memory.store(addr, ty, init.value)
        elif isinstance(init, ConstantFloat):
            self.memory.store(addr, ty, init.value)
        elif isinstance(init, ConstantData):
            if isinstance(ty, ArrayType):
                step = ty.element.size()
                for i, v in enumerate(init.values):
                    self.memory.store(addr + i * step, ty.element, v)
            elif isinstance(ty, StructType):
                for i, v in enumerate(init.values):
                    self.memory.store(addr + ty.field_offset(i), ty.fields[i], v)
            else:
                raise VMError(f"bad ConstantData target {ty}")
        elif isinstance(init, ConstantNull):
            self.memory.store(addr, ty, 0)

    # -- control ------------------------------------------------------------
    def start(self, fn_name: str = "main", args: Tuple = ()) -> None:
        self._enter(self._code(self.module.get_function(fn_name), args),
                    args, None)
        self.state = "ready"

    #: poll cadence for the (optional) wall-clock deadline; coarse so the
    #: hot loop stays branch-cheap when no deadline is configured
    WALL_CLOCK_POLL = 4096

    def run(self) -> "Machine":
        """Run until done, blocked, or trapped."""
        if self.wall_clock is not None and self._deadline is None:
            self._deadline = time.monotonic() + self.wall_clock
        try:
            if self.state == "ready":
                self._execute(0)
        except VMError as e:
            self.state = "trapped"
            # the traceback would pin this machine (and its memory) in
            # a reference cycle until the next collection
            self.error = e.with_traceback(None)
        return self

    def run_to_completion(self) -> "Machine":
        self.run()
        if self.state == "blocked":
            self.state = "trapped"
            self.error = DeadlockError(
                f"rank {self.rank} blocked on {self.blocked.tag} with no peers")
        return self

    def deliver(self, result) -> None:
        """Resolve a blocking call with ``result`` and resume."""
        assert self.state == "blocked"
        frame = self.frames[-1]
        op = frame.ops[frame.index]
        if op[0] == PRICED:
            op = op[3]
        frame.regs[op[3]] = result
        frame.index += 1
        self.blocked = None
        self.state = "ready"

    # -- nested synchronous execution (omp chunks, cuda threads) ----------
    def call_synchronously(self, fn: Function, args: Tuple):
        """Run ``fn`` to completion inside a runtime handler.

        Blocking calls are not allowed inside such nested regions (our
        workloads never block inside parallel regions).

        A step limit the calling instruction crossed traps here, on
        that instruction, before the region runs one of its own: the
        caller checks the budget only once the handler returns.
        """
        if self.instructions > self.max_steps:
            self._check_budget(self.instructions)
        depth = len(self.frames)
        self._enter(self._code(fn, args), args, None)
        if self.state != "ready":
            raise DeadlockError("blocking call inside a parallel region")
        self._execute(depth)
        return self.retval

    # -- frames ------------------------------------------------------------
    def _code(self, fn: Function, args: Tuple) -> DecodedFunction:
        return self.decoded.function(fn, min(len(args), len(fn.args)))

    def _enter(self, code: DecodedFunction, args: Tuple,
               ret: Optional[int]) -> None:
        if code.entry is None:
            code.decode()
        regs = code.template.copy()
        for slot, val in zip(code.arg_slots, args):
            regs[slot] = val
        self.frames.append(Frame(code.entry, regs, ret))

    def _leave(self, val) -> None:
        frame = self.frames.pop()
        if not self.frames:
            self.state = "done"
            self.retval = val
            return
        if frame.ret is None:
            # nested synchronous call: record return for call_synchronously
            self.retval = val
            return
        caller = self.frames[-1]
        caller.regs[frame.ret] = val
        caller.index += 1

    def _call_runtime(self, frame: Frame, name: str, args: Tuple,
                      dest: int) -> None:
        result = self.runtime.call(self, name, args)
        if isinstance(result, Blocked):
            self.state = "blocked"
            self.blocked = result
            return
        frame.regs[dest] = result
        frame.index += 1

    def _resume(self, levels: list, ret: int) -> Frame:
        """Push the frames a call tree stopped in (:class:`~repro.vm.
        decode.Deopt`), outermost first, the outermost returning to
        slot ``ret``; their code's runs are generated for them.  Returns
        the innermost."""
        for code, ops, index, regs, dest in reversed(levels):
            code.make_runs()
            frame = Frame(ops, regs, ret)
            frame.index = index
            self.frames.append(frame)
            ret = dest
        return frame

    # -- the execution loop -------------------------------------------------
    def _check_budget(self, n: int) -> None:
        """The step-limit and wall-clock checks after an instruction."""
        if n > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} instructions")
        if self._deadline is not None \
                and n % self.WALL_CLOCK_POLL == 0 \
                and time.monotonic() > self._deadline:
            raise WallClockExceeded(
                f"exceeded {self.wall_clock:.3f}s wall clock")

    def _next_check(self, n: int) -> int:
        """The next instruction count at which :meth:`_check_budget` can
        raise: one past the step limit, or the next wall-clock poll."""
        limit = self.max_steps + 1
        if self._deadline is None:
            return limit
        poll = self.WALL_CLOCK_POLL
        return min(limit, (n // poll + 1) * poll)

    def _execute(self, depth: int) -> None:
        """Run the top frame until the stack is back to ``depth`` frames
        or the machine blocks (an error inside a nested region, with
        ``depth`` > 0).

        Counters live in locals and are written back around every slow
        op (which sees, and may change, the machine's state) and on
        exit.  Per instruction, in order: count it, charge its cost,
        run it, then check the step and wall-clock budgets.  A FUSED
        run or a LOOP does all of that for its ops at once when no
        check can fire inside it, and op by op otherwise; a trap inside
        it is traced back to its op (:func:`~repro.vm.decode.
        trap_point`).  Runs and loops charge each block once while
        ``exact`` holds (:func:`~repro.vm.decode.exact_charges`), which
        only the entry and SLOW and PRICED ops can change; otherwise
        they charge op by op (:func:`~repro.vm.decode.charged`).
        Calls, returns and allocas run here, with the counters kept in
        locals; a caller's frame records the index of its call.  A call
        to a function with a call tree runs the tree while ``exact``
        holds, with ``check_at`` as its limit: it returns the counters
        with the result, or stops (:class:`~repro.vm.decode.Deopt`) and
        its frames go on here; a trap inside it is traced back to the
        innermost tree's op."""
        frames = self.frames
        mem = self.memory
        price = self.cost.of
        fallbacks = self.fallbacks
        n = self.instructions
        cycles = self.cycles
        gpu = self._gpu_factor
        check_at = self._next_check(n)
        most = self.decoded.max_charge
        bound = -1.0 if most is None \
            else 2.0 ** 53 - (self.max_steps + 1) * most
        exact = exact_charges(cycles, gpu, bound)
        frame = frames[-1]
        ops, i, regs = frame.ops, frame.index, frame.regs
        try:
            while True:
                op = ops[i]
                kind = op[0]
                if kind == LOOP:
                    limit = check_at - op[1]
                    if n < limit:
                        cycles, n, (ops, i) = (
                            op[2] if exact else charged(op))(
                                regs, mem, gpu, cycles, n, limit)
                        continue
                    op = op[3]  # the header's run: a check may fall in it
                    kind = FUSED
                if kind == FUSED:
                    length = op[1]
                    if n + length < check_at:
                        cycles, edge = (op[2] if exact else charged(op))(
                            regs, mem, gpu, cycles)
                        n += length
                    else:  # so that the check lands on its instruction
                        for step in steps(op):
                            cycles, edge = step(regs, mem, gpu, cycles)
                            n += 1
                            if n >= check_at:
                                self._check_budget(n)
                                check_at = self._next_check(n)
                    if edge is None:
                        i += length
                    else:
                        ops, i = edge
                    continue
                n += 1
                cycles += gpu * op[1]
                if kind == CALL:
                    code = regs[op[2]]
                    tree = code.tree
                    if tree is UNPLANTED:
                        tree = code.plant()
                    if tree is not None and exact:
                        try:
                            regs[op[4]], cycles, n = tree(
                                mem, cycles, n, check_at,
                                *map(regs.__getitem__, op[3]))
                            i += 1
                        except Deopt as stop:
                            fallbacks["budget"] += 1
                            n, cycles = stop.n, stop.cycles
                            frame.ops = ops
                            frame.index = i
                            frame = self._resume(stop.levels, op[4])
                            ops, i, regs = frame.ops, frame.index, frame.regs
                    else:
                        if tree is not None:
                            fallbacks["inexact-charges"] += 1
                        if code.entry is None:
                            code.decode()
                        callee = code.template.copy()
                        for slot, s in zip(code.arg_slots, op[3]):
                            callee[slot] = regs[s]
                        frame.ops = ops
                        frame.index = i
                        frame = Frame(code.entry, callee, op[4])
                        frames.append(frame)
                        ops, i, regs = code.entry, 0, callee
                elif kind == RET:
                    val = None if op[2] is None else regs[op[2]]
                    frames.pop()
                    ret = frame.ret
                    if not frames:
                        self.state = "done"
                        self.retval = val
                    elif ret is None:  # from call_synchronously
                        self.retval = val
                    else:
                        frame = frames[-1]
                        regs = frame.regs
                        regs[ret] = val
                        ops, i = frame.ops, frame.index + 1
                    if n >= check_at:
                        self._check_budget(n)
                        check_at = self._next_check(n)
                    if len(frames) <= depth:
                        return
                    continue
                elif kind == ALLOCA:
                    regs[op[4]] = mem.allocate(op[2], op[3])
                    i += 1
                else:
                    if kind == PRICED:  # an opcode the cost table lacks
                        cycles += gpu * price(op[2])
                        exact = exact_charges(cycles, gpu, bound)
                        op = op[3]
                    if op[0] == PLAIN:  # one generated op, charging nothing
                        cycles, edge = op[2](regs, mem, gpu, cycles)
                        if edge is None:
                            i += 1
                        else:
                            ops, i = edge
                    else:  # SLOW
                        frame.ops = ops
                        frame.index = i
                        self.instructions = n
                        self.cycles = cycles
                        try:
                            op[2](self, frame)
                        finally:
                            n = self.instructions
                            cycles = self.cycles
                        gpu = self._gpu_factor
                        exact = exact_charges(cycles, gpu, bound)
                        if n >= check_at:  # it cannot fire below
                            self._check_budget(n)
                            check_at = self._next_check(n)
                        if len(frames) <= depth:
                            return
                        if self.state != "ready":
                            if depth:
                                raise DeadlockError(
                                    "blocking call inside a parallel region")
                            return
                        frame = frames[-1]
                        ops, i, regs = frame.ops, frame.index, frame.regs
                        continue
                if n >= check_at:
                    self._check_budget(n)
                    check_at = self._next_check(n)
        except BaseException as e:
            point = trap_point(e.__traceback__, n)
            if point is not None and op[0] in (FUSED, LOOP, CALL):
                n, cycles = point
            raise
        finally:
            self.instructions = n
            self.cycles = cycles

    # -- output ------------------------------------------------------------
    def write_stdout(self, text: str) -> None:
        self.stdout.append(text)

    def output(self) -> str:
        return "".join(self.stdout)
