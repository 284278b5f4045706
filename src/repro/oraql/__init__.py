"""repro.oraql — the paper's contribution: the ORAQL pass, probing
driver, and verification script (plus the compiler wrapper they drive).
"""

from .cache import CACHE_SCHEMA_VERSION, VerdictCache, config_fingerprint
from .compiler import CompiledProgram, Compiler
from .config import BenchmarkConfig, SourceFile
from .driver import (
    ProbingDriver,
    ProbingReport,
    TestBudgetExhausted,
)
from .errors import FlakyConfigError, JournalError, ProbingError
from .executor import (
    ExecutorPolicy,
    TestExecutor,
    TestOutcome,
    is_transient_compiler_fault,
)
from .importance import (
    ImportanceDriver,
    ImportanceReport,
    ImportantQuery,
    Measurement,
    MeasurementBudgetExhausted,
    MeasuredCycleOracle,
    MiningResult,
    ParetoPoint,
    SyntheticCycleOracle,
    attribute_queries,
    mine_important,
)
from .journal import JOURNAL_SCHEMA_VERSION, SessionJournal
from .override import ChainValueReport, OraqlOverridePass, measure_chain_value
from .parallel import ParallelProbingDriver
from .pass_ import DumpFlags, OraqlAAPass, QueryRecord
from .report import (
    render_importance_report,
    render_pessimistic_dump,
    render_query,
    render_report,
)
from .sequence import DecisionSequence, sequence_from_pessimistic_set
from .verify import (
    TRIAGE_CLASSES,
    RunResult,
    VerificationScript,
    triage_run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
