"""The IR interpreter: an explicit-stack machine over decoded code.

Running the *optimized* IR is what makes ORAQL's verification real in
this reproduction: a wrong optimistic no-alias answer lets a pass forward
a stale value or delete a live store, and the executed program then
prints a different checksum (or traps / loops), failing verification.

The machine keeps its own frame stack (no host recursion for calls) so
that:
* instruction counts and cycle costs are exact,
* multiple ranks can be interleaved by the MPI scheduler,
* runaway miscompiles hit a step budget instead of hanging the driver.

It executes functions decoded once by :mod:`repro.vm.decode` (operand
slots, specialised handlers, pre-bound costs, per-edge phi moves); the
loop in :meth:`Machine._execute` only counts, charges and dispatches.
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
    BR,
    JUMP,
    PLAIN,
    PRICED,
    SLOW,
    DecodedFunction,
    DecodedModule,
    binop_fn,
    icmp_fn,
)
# re-exported: constant folding and tests use them
from .decode import _unsigned, _wrap_int  # noqa: F401
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

    __slots__ = ("regs", "ops", "index", "allocas", "ret")

    def __init__(self, entry: list, regs: list, ret: Optional[int]):
        self.regs = regs
        self.ops = entry
        self.index = 0
        self.allocas: List[int] = []
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
            decoded = DecodedModule(module, self.cost.costs)
        elif decoded.module is not module or decoded.costs != self.cost.costs:
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
        """
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
        for addr in frame.allocas:
            self.memory.free(addr)
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

    def _call_runtime(self, frame: Frame, name: str, args: Tuple, inst,
                      dest: int) -> None:
        result = self.runtime.call(self, name, args, inst)
        if isinstance(result, Blocked):
            self.state = "blocked"
            self.blocked = result
            return
        frame.regs[dest] = result
        frame.index += 1

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
        run it, then check the step and wall-clock budgets."""
        frames = self.frames
        mem = self.memory
        price = self.cost.of
        n = self.instructions
        cycles = self.cycles
        gpu = self._gpu_factor
        check_at = self._next_check(n)
        frame = frames[-1]
        ops, i, regs = frame.ops, frame.index, frame.regs
        try:
            while True:
                op = ops[i]
                n += 1
                cycles += gpu * op[1]
                while True:  # once, or twice for a PRICED op
                    code = op[0]
                    if code == PLAIN:
                        op[2](regs, mem)
                        i += 1
                    elif code == BR:
                        ops, i, moves = op[3] if regs[op[2]] else op[4]
                        if moves is not None:
                            moves(regs)
                    elif code == JUMP:
                        ops, i, moves = op[2]
                        if moves is not None:
                            moves(regs)
                    elif code == SLOW:
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
                    else:  # PRICED: an opcode the cost table lacks
                        cycles += gpu * price(op[2])
                        op = op[3]
                        continue
                    break
                if n >= check_at:
                    self._check_budget(n)
                    check_at = self._next_check(n)
        finally:
            self.instructions = n
            self.cycles = cycles

    # -- scalar semantics (shared with constant folding) ------------------
    @staticmethod
    def _scalar_binop(op: str, a, b, ty: Type):
        return binop_fn(op, ty)(a, b)

    @staticmethod
    def _icmp(pred: str, a: int, b: int, bits: int) -> int:
        return icmp_fn(pred, bits)(a, b)

    # -- output ------------------------------------------------------------
    def write_stdout(self, text: str) -> None:
        self.stdout.append(text)

    def output(self) -> str:
        return "".join(self.stdout)
