"""Trace event records: typed views over plain JSON-able dicts.

Every record is a flat dict with a ``"t"`` discriminator so the JSONL
log is greppable and the round-trip through any exporter is lossless:

=========  ==========================================================
``t``      record
=========  ==========================================================
``meta``   session header (config name, strategy, format version)
``compile`` compile boundary: label (baseline/probe/final), decision
           bits, monotonically increasing compile number ``n`` — or,
           with ``reuses`` in place of ``n``, a label given to the
           earlier compile ``reuses`` without compiling again (the
           final program that is the last passing probe)
``replay`` a probe whose compile answer replay skipped: its decision
           bits and the exe hash earlier answers fixed
``q``      one alias query (provenance-tagged)
``r``      one optimization remark, linked to ORAQL query indices
``s``      one pass statistic of the enclosing compile
``done``   session footer: the pinned pessimistic index set
=========  ==========================================================

Query records carry: the issuing pass (top of the pass-context stack),
the full stack (so queries issued by an analysis built *inside* a pass,
e.g. Memory SSA during GVN, keep both attributions), the enclosing
function, a content-based pointer-pair fingerprint, the responding
analysis, the response, and — for queries the ORAQL pass answered —
the unique-query index and cache-hit status.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence

TRACE_FORMAT_VERSION = 1

#: responder value for queries no analysis (and no ORAQL pass) answered
RESPONDER_NONE = "none"
#: responder value for queries the override pass forced pessimistic
RESPONDER_OVERRIDE = "override"
#: responder value for ORAQL-answered queries
RESPONDER_ORAQL = "oraql-aa"


def describe_location(loc) -> str:
    """A deterministic, content-based one-line description of a
    :class:`~repro.analysis.memloc.MemoryLocation` (no object ids)."""
    from ..ir.instructions import Instruction
    from ..ir.printer import format_instruction

    ptr = loc.ptr
    if isinstance(ptr, Instruction):
        body = format_instruction(ptr)
    else:
        body = f"{ptr.type} {ptr.short()}"
    return f"{body} [{loc.size}]"


def pointer_fingerprint(a, b) -> str:
    """Unordered, content-based fingerprint of a pointer pair.

    Derived from the rendered location descriptions rather than value
    ids, so two compiles of the same program produce the same
    fingerprints (value ids are process-global and drift)."""
    da, db = describe_location(a), describe_location(b)
    if db < da:
        da, db = db, da
    return hashlib.sha256(f"{da}|{db}".encode()).hexdigest()[:12]


# -- record constructors ------------------------------------------------------

def meta_record(config: str, strategy: str) -> dict:
    return {"t": "meta", "version": TRACE_FORMAT_VERSION,
            "config": config, "strategy": strategy}


def compile_record(n: int, label: str,
                   bits: Optional[Sequence[int]] = None,
                   reuses: bool = False) -> dict:
    rec = {"t": "compile", "reuses" if reuses else "n": n, "label": label}
    if bits is not None:
        rec["bits"] = "".join(str(b) for b in bits)
    return rec


def replay_record(bits: Sequence[int], exe_hash: str) -> dict:
    return {"t": "replay", "bits": "".join(str(b) for b in bits),
            "exe": exe_hash}


def query_record(issuer: str, stack: Sequence[str], function: str,
                 fp: str, responder: str, response: str,
                 cached: bool = False,
                 index: Optional[int] = None,
                 optimistic: Optional[bool] = None) -> dict:
    rec = {"t": "q", "pass": issuer, "stack": list(stack),
           "function": function, "fp": fp,
           "responder": responder, "response": response}
    if responder == RESPONDER_ORAQL:
        rec["cached"] = cached
        rec["index"] = index
        rec["optimistic"] = optimistic
    return rec


def remark_record(pass_name: str, function: str, message: str,
                  queries: Sequence[int] = ()) -> dict:
    return {"t": "r", "pass": pass_name, "function": function,
            "message": message, "queries": list(queries)}


def stat_record(pass_name: str, stat: str, value: int) -> dict:
    return {"t": "s", "pass": pass_name, "stat": stat, "value": value}


def done_record(pessimistic_indices: Sequence[int]) -> dict:
    return {"t": "done", "pessimistic": list(pessimistic_indices)}


def render_remark(rec: dict) -> str:
    """One ``-Rpass``-style line for a remark record."""
    return (f"remark: {rec['pass']}: {rec['function']}: {rec['message']}")


def is_oraql_query(rec: dict) -> bool:
    return rec.get("t") == "q" and rec.get("responder") == RESPONDER_ORAQL


def split_compiles(records: Sequence[dict]) -> List[tuple]:
    """Segment a record stream into ``(label, [records])`` per compile.
    Records before the first compile marker get the label ``"<pre>"``;
    a marker that ``reuses`` compile ``n`` starts its segment with a
    copy of that compile's records."""
    out: List[tuple] = []
    by_n: Dict[int, List[dict]] = {}
    label, bucket, started = "<pre>", [], False
    for rec in records:
        if rec.get("t") == "compile":
            if started or bucket:
                out.append((label, bucket))
            label, started = rec.get("label", "?"), True
            if "reuses" in rec:
                bucket = list(by_n.get(rec["reuses"], ()))
            else:
                bucket = by_n[rec.get("n")] = []
        else:
            bucket.append(rec)
    if started or bucket:
        out.append((label, bucket))
    return out
