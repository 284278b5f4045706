"""``python -m repro.service`` — run the probing session server."""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import List, Optional

from .server import ProbingService


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve concurrent ORAQL probing sessions over a "
                    "unix socket or TCP, with journal-backed resume.")
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--socket", metavar="PATH",
                       help="listen on a unix socket at PATH")
    where.add_argument("--tcp", metavar="HOST:PORT",
                       help="listen on a TCP address (PORT 0 = "
                            "ephemeral, printed on startup)")
    parser.add_argument("--jobs", type=int, default=2, metavar="N",
                        help="worker processes (default 2)")
    parser.add_argument("--state-dir", default="service-state",
                        metavar="DIR",
                        help="durable state: job table, verdict "
                             "cache, per-job journals and event "
                             "streams (default ./service-state)")
    parser.add_argument("--resume", action="store_true",
                        help="replay DIR's job table: finished jobs "
                             "serve their recorded results, unfinished "
                             "ones resume from their session journals")
    return parser


async def _serve(args: argparse.Namespace) -> None:
    if args.socket:
        service = ProbingService(args.state_dir, jobs=args.jobs,
                                 resume=args.resume,
                                 socket_path=args.socket)
    else:
        host, _, port = args.tcp.rpartition(":")
        service = ProbingService(args.state_dir, jobs=args.jobs,
                                 resume=args.resume,
                                 host=host or "127.0.0.1",
                                 port=int(port))
    await service.start()
    where = (args.socket if args.socket
             else f"{service.host}:{service.port}")
    print(f"repro.service listening on {where} "
          f"(state: {args.state_dir}, workers: {args.jobs})",
          flush=True)
    await service.serve_until_shutdown()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.tcp and ":" not in args.tcp:
        build_parser().error(f"--tcp wants HOST:PORT, got {args.tcp!r}")
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
