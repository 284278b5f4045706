"""Trace exporters: JSONL event log and Chrome ``trace_event`` format.

JSONL (``--trace-out``)
    One record per line, written **atomically**: the whole stream is
    serialized to a temp file in the target directory and moved into
    place with :func:`os.replace`.  A probing session killed mid-write
    therefore leaves either no trace file or the previous complete one
    — never a torn or duplicated suffix (the chaos-smoke test pins
    this).

Chrome (``--trace-chrome``)
    A ``{"traceEvents": [...]}`` JSON document loadable in Perfetto /
    ``chrome://tracing``.  Phases become complete (``"ph": "X"``)
    events reconstructed from the timer tree; queries/remarks become
    instant (``"ph": "i"``) events carrying the full original record in
    ``args`` so the export is lossless — :func:`parse_chrome` recovers
    the exact record stream and timer tree (round-trip pinned by a
    property test).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, List, Optional, Tuple

from .timer import PhaseNode

#: JSON schema for the Chrome trace document (used by the CI
#: ``trace-smoke`` job; ``validate_chrome`` falls back to a structural
#: check when ``jsonschema`` is unavailable).
CHROME_TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents", "displayTimeUnit"],
    "properties": {
        "displayTimeUnit": {"type": "string", "enum": ["ms", "ns"]},
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["ph", "pid", "tid", "name"],
                "properties": {
                    "ph": {"type": "string", "enum": ["X", "i", "M"]},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "name": {"type": "string"},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "args": {"type": "object"},
                    "s": {"type": "string"},
                    "cat": {"type": "string"},
                },
            },
        },
    },
}


def _atomic_write(path: str, payload: str) -> None:
    """Write ``payload`` to ``path`` via tmp-file + rename so a fault
    mid-write can never leave a torn file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trace-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# -- JSONL --------------------------------------------------------------------

def dump_jsonl(records: Iterable[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    _atomic_write(path, dump_jsonl(records))


def parse_jsonl(text: str) -> List[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def read_jsonl(path: str) -> List[dict]:
    with open(path) as f:
        return parse_jsonl(f.read())


# -- Chrome trace_event -------------------------------------------------------

_PID = 1          # the repro is one logical process in the trace view
_EVENT_SPACING = 10.0  # µs between synthetic instant-event timestamps


def chrome_document(records: List[dict],
                    timer_tree: Optional[dict] = None) -> dict:
    """Build a Perfetto-loadable trace document.

    Timer phases are laid out as complete events on tid 0 (children
    packed left-to-right inside their parent's span).  Records become
    instant events on tid 1 at synthetic, evenly spaced timestamps —
    real per-event timestamps are not recorded (the zero-cost contract
    forbids a clock call per query), so ordering, not absolute time,
    is the meaningful axis there.
    """
    events: List[dict] = []
    if timer_tree is not None:
        root = PhaseNode.from_dict(timer_tree)
        cursor = [0.0]

        def emit(node: PhaseNode, start: float) -> None:
            dur = node.total * 1e6  # seconds -> microseconds
            events.append({"ph": "X", "pid": _PID, "tid": 0,
                           "name": node.name, "cat": "phase",
                           "ts": start, "dur": dur,
                           "args": {"count": node.count}})
            child_start = start
            for child in node.children.values():
                emit(child, child_start)
                child_start += child.total * 1e6

        for child in root.children.values():
            emit(child, cursor[0])
            cursor[0] += child.total * 1e6
        # metadata event embedding the exact tree for lossless parse-back
        events.append({"ph": "M", "pid": _PID, "tid": 0,
                       "name": "phase_timer_tree",
                       "args": {"tree": timer_tree}})

    ts = 0.0
    for rec in records:
        name = {"meta": "session", "compile": "compile",
                "replay": "replay", "q": "query",
                "r": "remark", "s": "stat", "done": "done"}.get(
                    rec.get("t", "?"), rec.get("t", "?"))
        events.append({"ph": "i", "pid": _PID, "tid": 1, "name": name,
                       "cat": "trace", "s": "t", "ts": ts,
                       "args": {"record": rec}})
        ts += _EVENT_SPACING

    events.append({"ph": "M", "pid": _PID, "tid": 0,
                   "name": "process_name",
                   "args": {"name": "oraql probing session"}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(path: str, records: List[dict],
                 timer_tree: Optional[dict] = None) -> None:
    doc = chrome_document(records, timer_tree)
    _atomic_write(path, json.dumps(doc, sort_keys=True))


def parse_chrome(doc: dict) -> Tuple[List[dict], Optional[dict]]:
    """Recover the original ``(records, timer_tree)`` from a Chrome
    trace document produced by :func:`chrome_document`."""
    records: List[Tuple[float, dict]] = []
    timer_tree: Optional[dict] = None
    for event in doc.get("traceEvents", ()):
        if event.get("ph") == "i" and "record" in event.get("args", {}):
            records.append((event.get("ts", 0.0), event["args"]["record"]))
        elif (event.get("ph") == "M"
              and event.get("name") == "phase_timer_tree"):
            timer_tree = event["args"]["tree"]
    records.sort(key=lambda pair: pair[0])
    return [rec for _, rec in records], timer_tree


def read_chrome(path: str) -> Tuple[List[dict], Optional[dict]]:
    with open(path) as f:
        return parse_chrome(json.load(f))


def validate_chrome(doc: dict) -> List[str]:
    """Validate a Chrome trace document; returns a list of problems
    (empty = valid).  Uses ``jsonschema`` when importable, with an
    equivalent structural fallback otherwise so tier-1 carries no hard
    dependency."""
    try:
        import jsonschema
    except ImportError:
        jsonschema = None
    if jsonschema is not None:
        validator = jsonschema.Draft7Validator(CHROME_TRACE_SCHEMA)
        return [f"{'/'.join(str(p) for p in e.absolute_path)}: {e.message}"
                for e in validator.iter_errors(doc)]

    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if not isinstance(doc.get("traceEvents"), list):
        problems.append("traceEvents: missing or not an array")
        return problems
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        problems.append("displayTimeUnit: missing or invalid")
    for i, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            problems.append(f"traceEvents/{i}: not an object")
            continue
        for key in ("ph", "pid", "tid", "name"):
            if key not in event:
                problems.append(f"traceEvents/{i}: missing '{key}'")
        if event.get("ph") not in ("X", "i", "M"):
            problems.append(f"traceEvents/{i}: bad ph {event.get('ph')!r}")
        for key in ("ts", "dur"):
            if key in event and (not isinstance(event[key], (int, float))
                                 or event[key] < 0):
                problems.append(f"traceEvents/{i}: bad {key}")
    return problems
