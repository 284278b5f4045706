"""Per-layer spans for the benchmark, recorded from outside the program.

A traced run wraps the public entry point of each layer (the table
``TARGETS``) with a timing shim and restores the originals afterwards.
Nothing inside ``src/`` is edited, and the program's own tracing
(``trace=`` / ``--time-passes``) is not used: attaching it changes the
compile path and crashes rows whose SLP remark fires (see README.md).

Each call becomes a span ``[layer, start, end, parent, session]`` kept
in memory; a layer's self time is its spans' durations minus the part
covered by their child spans.  Counters are taken from the wrapped
calls' return values at the same boundaries.

The service workload installs the same shims in its server, whose
forked workers inherit them (serve.py).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = List  # [layer, start, end, parent index or -1, session]


def _count_compile(c: Counter, prog) -> None:
    c["compiles"] += 1
    c["pass_executions"] += prog.pass_executions
    c["analysis_builds"] += sum(prog.analysis_counters["builds"].values())


def _count_run(c: Counter, result) -> None:
    c["vm_runs"] += 1
    c["vm_instructions"] += result.instructions


def _count_triage(c: Counter, triage: str) -> None:
    c["wrong_output"] += triage == "wrong-output"


def _count_lookup(c: Counter, record) -> None:
    c["cache_lookups"] += 1
    c["cache_hits"] += record is not None


def _count_strategy(c: Counter, _result) -> None:
    c["strategy_calls"] += 1


def _count_session(c: Counter, report) -> None:
    c["tests_run"] += report.tests_run


#: (layer, module, attribute path, counter hook): the layer boundaries.
#: ``driver`` is the session root; its self time is what no other
#: layer covers.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("driver", "repro.oraql.driver", "ProbingDriver.run", _count_session),
    ("compiler", "repro.oraql.compiler", "Compiler.compile", _count_compile),
    ("frontend", "repro.oraql.compiler", "compile_source", None),
    ("passes", "repro.passes.pass_manager", "PassManager.run", None),
    ("codegen", "repro.oraql.compiler", "codegen_function", None),
    ("codegen", "repro.oraql.compiler", "compile_kernel", None),
    ("vm", "repro.oraql.compiler", "CompiledProgram.run", _count_run),
    ("verify", "repro.oraql.verify", "VerificationScript.check", None),
    ("verify", "repro.oraql.verify", "VerificationScript.triage",
     _count_triage),
    ("verify", "repro.oraql.verify", "VerificationScript.explain", None),
    ("strategy", "repro.oraql.strategies.base", "GeneratorStrategy.start",
     _count_strategy),
    ("strategy", "repro.oraql.strategies.base", "GeneratorStrategy.propose",
     _count_strategy),
    ("strategy", "repro.oraql.strategies.base", "GeneratorStrategy.observe",
     _count_strategy),
    ("cache", "repro.oraql.cache", "VerdictCache.get_record", _count_lookup),
    ("cache", "repro.oraql.cache", "VerdictCache.put", None),
)


class Recorder:
    """Spans and counters of one process, kept in memory.

    ``session`` labels new spans and counters; ``active`` False makes
    the shims call straight through (answer checks run untraced)."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[object, Counter] = defaultdict(Counter)
        self.session: object = None
        self.active = True
        self._stack: List[int] = []

    def wrap(self, layer: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.session]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counts[self.session], result)
            return result

        return shim


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


@contextlib.contextmanager
def installed(rec: Recorder, targets=None) -> Iterator[List[str]]:
    """Install the shims (default: ``TARGETS``) for the ``with`` block;
    yields the targets that could not be found.  A missing target is
    skipped: its time falls to the enclosing layer and shows as lower
    ``trace.coverage``."""
    patched = []
    absent = []
    try:
        for layer, module, path, count in (TARGETS if targets is None
                                           else targets):
            try:
                owner, name, original = _resolve(module, path)
            except (ImportError, AttributeError, KeyError):
                absent.append(f"{module}.{path}")
                continue
            setattr(owner, name, rec.wrap(layer, original, count))
            patched.append((owner, name, original))
        yield absent
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


def self_times(spans: List[Span]) -> Dict[object, Dict[str, float]]:
    """session -> layer -> self seconds (duration minus child spans)."""
    covered = [0.0] * len(spans)
    for _layer, start, end, parent, _session in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[object, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for i, (layer, start, end, _parent, session) in enumerate(spans):
        out[session][layer] += end - start - covered[i]
    return out


def root_durations(spans: List[Span], layer: str = "driver"
                   ) -> Dict[object, float]:
    """session -> summed duration of its ``layer`` spans."""
    out: Dict[object, float] = defaultdict(float)
    for name, start, end, _parent, session in spans:
        if name == layer:
            out[session] += end - start
    return out


def write_spans(path: str, spans: List[Span]) -> None:
    with open(path, "w") as f:
        for span in spans:
            f.write(json.dumps(span) + "\n")
