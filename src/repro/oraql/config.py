"""Benchmark configuration (paper §IV-B).

The probing driver is controlled by a benchmark-specific configuration
that names the compiler frontend, the compilation flags, the files or
functions to which optimistic probing applies, how to run the program,
and the reference output(s) with the regex filters the verification
script applies (run times, noisy last digits, ...).

Configurations serialize to/from JSON so they can live next to the
benchmark sources, as the paper's configuration files do.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple


@dataclass
class SourceFile:
    """One translation unit: a named MiniC source text."""

    name: str
    text: str


@dataclass
class BenchmarkConfig:
    """Everything the driver needs to compile, run, and verify one
    benchmark configuration."""

    name: str
    sources: List[SourceFile]
    #: "clang" | "clang++" | "mpicc" | "flang" — selects defaults below
    frontend: str = "clang"
    opt_level: int = 3
    #: manual-LTO: link all translation units before optimizing (§V-A-d)
    lto: bool = False
    #: alias-analysis chain (LLVM default order unless overridden)
    aa_chain: Optional[List[str]] = None
    #: restrict ORAQL to these source files (e.g. only sna.cpp)
    probe_files: Optional[List[str]] = None
    #: restrict ORAQL to these functions
    probe_functions: Optional[List[str]] = None
    #: -opt-aa-target= substring (device-only probing, §IV-E)
    target_filter: Optional[str] = None
    #: execution
    entry: str = "main"
    argv: List[str] = field(default_factory=list)
    nranks: int = 1
    num_threads: int = 4
    max_steps: int = 80_000_000
    #: verification: reference outputs (filled by the driver's baseline
    #: run when empty) and regex filters applied before comparison
    reference_outputs: List[str] = field(default_factory=list)
    output_filters: List[Tuple[str, str]] = field(default_factory=list)

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, indent=2)

    @staticmethod
    def from_json(text: str) -> "BenchmarkConfig":
        d = json.loads(text)
        d["sources"] = [SourceFile(**s) for s in d.get("sources", [])]
        d["output_filters"] = [tuple(f) for f in d.get("output_filters", [])]
        return BenchmarkConfig(**d)

    # -- derived ---------------------------------------------------------
    def probe_file_set(self) -> Optional[set]:
        return set(self.probe_files) if self.probe_files is not None else None

    def probe_function_set(self) -> Optional[set]:
        return (set(self.probe_functions)
                if self.probe_functions is not None else None)
