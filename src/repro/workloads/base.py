"""Workload infrastructure: variant descriptors and the registry.

Each proxy application module exposes ``config(variant) ->
BenchmarkConfig`` plus a ``VARIANTS`` table describing the paper's
configurations (programming model, probed files, expected behaviour
under ORAQL).  The sources are MiniC re-implementations: scaled down,
but with the same aliasing structure as the originals (see DESIGN.md's
substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..oraql.config import BenchmarkConfig


@dataclass(frozen=True)
class VariantInfo:
    """Metadata about one benchmark configuration (one Fig. 4 row)."""

    benchmark: str
    variant: str
    programming_model: str
    source_files: str                 # the "Source Files" column of Fig. 4
    #: paper's Fig. 4 row for side-by-side reporting
    paper_opt_unique: int = 0
    paper_opt_cached: int = 0
    paper_pess_unique: int = 0
    paper_pess_cached: int = 0
    paper_noalias_original: int = 0
    paper_noalias_oraql: int = 0
    paper_delta: str = ""

    @property
    def row_name(self) -> str:
        return f"{self.benchmark}-{self.variant}"

    @property
    def paper_fully_optimistic(self) -> bool:
        return self.paper_pess_unique == 0


_REGISTRY: Dict[str, Tuple[VariantInfo, Callable[[], BenchmarkConfig]]] = {}


def register(info: VariantInfo,
             factory: Callable[[], BenchmarkConfig]) -> None:
    _REGISTRY[info.row_name] = (info, factory)


def all_variants() -> List[VariantInfo]:
    return [info for info, _ in _REGISTRY.values()]


def get_config(row_name: str) -> BenchmarkConfig:
    info, factory = _REGISTRY[row_name]
    return factory()


def get_info(row_name: str) -> VariantInfo:
    return _REGISTRY[row_name][0]


def row_names() -> List[str]:
    return list(_REGISTRY.keys())
