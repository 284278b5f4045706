"""Optimization pipelines (O0–O3), mirroring LLVM's pass ordering at the
granularity that matters for alias-analysis consumers."""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .dse import DSE
from .early_cse import EarlyCSE
from .gvn import GVN
from .licm import LICM
from .loop_deletion import LoopDeletion
from .loop_load_elim import LoopLoadElim
from .loop_vectorize import LoopVectorize
from .machine_sink import MachineSink
from .mem2reg import Mem2Reg
from .memcpy_opt import MemCpyOpt
from .pass_manager import Pass
from .simplify import DeadCodeElim, InstCombine, SimplifyCFG
from .slp_vectorize import SLPVectorize


def build_pipeline(level: int = 3) -> List[Pass]:
    """The pass sequence for ``-O<level>``.

    O0 performs no transformation at all; O1 cleans up and does simple
    scalar optimization; O2 adds the heavier AA consumers; O3 adds
    vectorization and a second LICM/cleanup round.
    """
    if level <= 0:
        return []
    pipeline: List[Pass] = [
        SimplifyCFG(),
        Mem2Reg(),
        InstCombine(),
        SimplifyCFG(),
        EarlyCSE(),
    ]
    if level >= 2:
        pipeline += [
            LICM(),
            GVN(),
            MemCpyOpt(),
            DSE(),
            LoopLoadElim(),
            InstCombine(),
            DeadCodeElim(),
            LICM(),
            LoopDeletion(),
        ]
    if level >= 3:
        pipeline += [
            LoopVectorize(),
            SLPVectorize(),
        ]
    pipeline += [
        InstCombine(),
        DeadCodeElim(),
        MachineSink(),
        SimplifyCFG(),
        DeadCodeElim(),
    ]
    return pipeline


#: Passes that never consult alias analysis.  The leading run of them
#: in a pipeline (:func:`split_prefix`) does the same work on the same
#: input whatever the decision sequence, so a compiler may run it once
#: per session and start each compile from a copy of its result.
QUERY_FREE = (SimplifyCFG, Mem2Reg, InstCombine)


def split_prefix(pipeline: Sequence[Pass]) -> Tuple[List[Pass], List[Pass]]:
    """Split ``pipeline`` before its first pass that may issue an alias
    query: the query-free prefix, and the rest."""
    n = 0
    while n < len(pipeline) and isinstance(pipeline[n], QUERY_FREE):
        n += 1
    return list(pipeline[:n]), list(pipeline[n:])


PASS_NAMES = {
    "simplifycfg": SimplifyCFG,
    "mem2reg": Mem2Reg,
    "instcombine": InstCombine,
    "early-cse": EarlyCSE,
    "licm": LICM,
    "gvn": GVN,
    "memcpyopt": MemCpyOpt,
    "dse": DSE,
    "loop-load-elim": LoopLoadElim,
    "loop-deletion": LoopDeletion,
    "loop-vectorize": LoopVectorize,
    "slp-vectorizer": SLPVectorize,
    "machine-sink": MachineSink,
    "dce": DeadCodeElim,
}


def parse_pipeline(spec: str) -> List[Pass]:
    """Build a pipeline from a comma-separated pass list (for tests)."""
    return [PASS_NAMES[name.strip()]() for name in spec.split(",") if name.strip()]
