"""repro.passes — transformation passes, pass manager, statistics."""

from .analysis_manager import (
    AnalysisManager,
    AnalysisVerificationError,
    CoarseAnalysisManager,
    DominatorTreeAnalysis,
    LoopAnalysis,
    MemorySSAAnalysis,
    PreservedAnalyses,
)
from .dse import DSE
from .early_cse import EarlyCSE
from .gvn import GVN
from .licm import LICM
from .loop_deletion import LoopDeletion
from .loop_load_elim import LoopLoadElim
from .loop_vectorize import LoopVectorize, VF
from .machine_sink import MachineSink
from .mem2reg import Mem2Reg, dominance_frontiers
from .memcpy_opt import MemCpyOpt
from .pass_manager import (
    CompilationContext,
    FunctionAnalyses,
    Pass,
    PassManager,
)
from .pipelines import (
    PASS_NAMES,
    build_pipeline,
    parse_pipeline,
    split_prefix,
)
from .simplify import DeadCodeElim, InstCombine, SimplifyCFG
from .slp_vectorize import SLPVectorize
from .statistics import Statistics

__all__ = [name for name in dir() if not name.startswith("_")]
