"""Strategy registry: every probing strategy, addressable by name.

Adding a strategy is three steps (DESIGN.md §5h): subclass
:class:`~repro.oraql.strategies.base.Strategy` with a ``_search``
generator, give it a ``name``, and :func:`register` it here.  The CLI
``--strategy`` choices, the service's submit validation, the fuzz
oracle's ``--strategies all`` cross-check, and the benchmark matrix all
derive from this registry, so a new strategy shows up everywhere at
once.
"""

from __future__ import annotations

from typing import Dict, List, Type

from .base import Probe, SearchState, Strategy, StrategyContext
from .chunked import ChunkedStrategy
from .frequency import FrequencyStrategy

_REGISTRY: Dict[str, Type[Strategy]] = {}


def register(cls: Type[Strategy]) -> Type[Strategy]:
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"duplicate strategy name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def strategy_names() -> List[str]:
    """Registered strategy names, in registration order (the default,
    chunked, first)."""
    return list(_REGISTRY)


def create_strategy(name: str) -> Strategy:
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown strategy {name!r} (known: "
            f"{', '.join(strategy_names())})")
    return cls()


for _cls in (ChunkedStrategy, FrequencyStrategy):
    register(_cls)

__all__ = [
    "Probe", "SearchState", "Strategy", "StrategyContext",
    "create_strategy", "register", "strategy_names",
]
