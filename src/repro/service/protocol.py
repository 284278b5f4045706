"""The probing service's line-delimited JSON wire protocol.

One JSON object per ``\\n``-terminated line, in both directions — the
same framing as every other durable stream in this repository (verdict
cache, session journal, trace JSONL), so the wire is greppable and
``nc -U socket`` is a usable debugging client.

Client → server message types (``"t"`` discriminator):

==========  ==============================================================
``hello``   open a session: ``{"t": "hello", "tenant": ..., "v": 1}``
``submit``  enqueue a job (see :data:`SUBMIT_FIELDS`); ``"stream": true``
            subscribes this connection to the job's progress events
``status``  one job's current state
``wait``    block until a job completes, then its ``result``
``jobs``    list every job the server knows about
``cancel``  best-effort cancel (pending jobs only; a job already running
            in a worker completes and is then marked cancelled)
``shutdown``  stop accepting jobs and exit after the reply
==========  ==============================================================

Server → client:

===========  =============================================================
``welcome``  hello reply: protocol version, server identity
``accepted`` submit reply: the assigned job id
``event``    one progress event: ``{"t": "event", "id": ..., "ev": R}``
             where ``R`` is a record in the **QueryTrace JSONL schema**
             (``meta``/``compile``/``done``; ``repro.trace`` reads it)
``status``   status/jobs reply
``result``   terminal job state: the serialized report, or the error
``error``    a structured refusal: ``code`` from :data:`ERROR_CODES`
``ok``       acknowledgement (cancel, shutdown)
===========  =============================================================

Any malformed line, unknown type, or quota refusal produces an
``error`` message on the same connection — never a dropped connection,
never a traceback on the wire.
"""

from __future__ import annotations

import json
from typing import Optional

PROTOCOL_VERSION = 1

#: structured refusal codes carried by ``error`` messages
ERROR_CODES = (
    "bad-request",        # unparseable line / missing fields / bad type
    "unsupported-version",
    "unknown-workload",
    "unknown-job",
    "duplicate-job",
    "quota-exceeded",
    "shutting-down",
    "job-failed",
)

#: fields a ``submit`` message may carry (everything else is rejected
#: as ``bad-request`` so client typos fail loudly, not silently)
SUBMIT_FIELDS = frozenset({
    "t", "id", "tenant", "kind", "workload", "config", "strategy",
    "max_tests", "stream", "fault_plan",
    "significant_percent", "recover_percent", "max_measurements",
})


class ProtocolError(ValueError):
    """A line that cannot be understood as a protocol message."""


def encode(msg: dict) -> bytes:
    """One wire line (newline-terminated, UTF-8)."""
    return (json.dumps(msg, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def decode(line: bytes) -> dict:
    """Parse one wire line; raises :class:`ProtocolError` on garbage."""
    try:
        msg = json.loads(line.decode("utf-8", errors="replace"))
    except ValueError as e:
        raise ProtocolError(f"undecodable message line: {e}")
    if not isinstance(msg, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(msg).__name__}")
    t = msg.get("t")
    if not isinstance(t, str) or not t:
        raise ProtocolError("message carries no type discriminator 't'")
    return msg


# -- message constructors -----------------------------------------------------

def hello_msg(tenant: str = "default") -> dict:
    return {"t": "hello", "tenant": tenant, "v": PROTOCOL_VERSION}


def welcome_msg(server: str) -> dict:
    return {"t": "welcome", "v": PROTOCOL_VERSION, "server": server}


def error_msg(code: str, detail: str,
              job_id: Optional[str] = None) -> dict:
    assert code in ERROR_CODES, code
    msg = {"t": "error", "code": code, "detail": detail}
    if job_id is not None:
        msg["id"] = job_id
    return msg


def accepted_msg(job_id: str) -> dict:
    return {"t": "accepted", "id": job_id}


def event_msg(job_id: str, record: dict) -> dict:
    return {"t": "event", "id": job_id, "ev": record}


def status_msg(job_id: str, status: str, **extra) -> dict:
    return {"t": "status", "id": job_id, "status": status, **extra}


def result_msg(job_id: str, status: str, report: Optional[dict] = None,
               error: Optional[str] = None) -> dict:
    msg = {"t": "result", "id": job_id, "status": status}
    if report is not None:
        msg["report"] = report
    if error is not None:
        msg["error"] = error
    return msg


def ok_msg(**extra) -> dict:
    return {"t": "ok", **extra}
