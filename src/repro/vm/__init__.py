"""repro.vm — deterministic execution of (optimized) IR.

Provides the byte-addressable memory model, the decoder that turns each
function into flat op lists once, the interpreter that executes them
with instruction/cycle accounting, runtime shims for libc/OpenMP/CUDA,
and the multi-rank MPI scheduler.
"""

from .cost_model import (
    CostModel,
    DEFAULT_COSTS,
    INTRINSIC_COSTS,
    UnknownCostError,
    occupancy_factor,
)
from .errors import (
    DeadlockError,
    MemoryTrap,
    StepLimitExceeded,
    UndefinedBehavior,
    VMError,
    WallClockExceeded,
)
from .interpreter import Blocked, Frame, Machine
from .memory import Memory
from .runtime import MPIWorld, Runtime

__all__ = [name for name in dir() if not name.startswith("_")]
