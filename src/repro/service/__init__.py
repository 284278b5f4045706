"""Probing-as-a-service: an asyncio session server.

See DESIGN.md §5g.  ``python -m repro.service --socket /tmp/oraql.sock``
starts the server; :class:`~repro.service.client.ServiceClient` (or any
line-delimited-JSON speaker, ``nc -U`` included) drives it.  Each job
runs through :func:`~repro.oraql.parallel.run_session`, the session
runner behind ``--jobs``.  The correctness contract — concurrent,
resumed, and chaos-interrupted jobs report bit-identical pessimistic
sets and executable hashes to sequential
:class:`~repro.oraql.driver.ProbingDriver` runs — is pinned by
``tests/test_service_server.py`` / ``tests/test_service_chaos.py`` and
the ``-m service`` acceptance matrix in ``tests/test_service_full.py``.
"""

from .client import ServiceClient, ServiceError
from ..oraql.parallel import JobSpec
from .jobs import JobTable, report_from_dict, report_to_dict
from .protocol import PROTOCOL_VERSION, ProtocolError
from .scheduler import ProbingScheduler
from .server import ProbingService

__all__ = [
    "ProbingService", "ProbingScheduler", "ServiceClient",
    "ServiceError", "JobSpec", "JobTable", "ProtocolError",
    "PROTOCOL_VERSION", "report_to_dict", "report_from_dict",
]
