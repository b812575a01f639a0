"""Sweep-service CLI.

Usage::

    python -m repro.serve                          # env-default config
    python -m repro.serve --port 9000 --workers 4
    python -m repro.serve --socket /tmp/repro-serve.sock
    python -m repro.serve --store dse-wss.sqlite \\
        --migrate-from dse-wss.jsonl               # migrate, then serve
    python -m repro.serve --migrate-from dse-wss.jsonl --migrate-only

Flag defaults come from the ``REPRO_SERVE_*`` environment variables
(see the README table); every flag is documented in docs/SERVICE.md,
which ``tools/check_docs.py`` enforces. The process serves until
``POST /v1/shutdown`` or SIGINT, both of which close the pool and the
store cleanly. Exit status: 0 on clean shutdown, 2 on bad arguments or
a failed migration.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigError
from ..dse.store import migrate_jsonl_to_sqlite
from .config import ServeConfig
from .server import SweepServer


def build_parser() -> argparse.ArgumentParser:
    env = ServeConfig.from_env()
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent sweep server: submit sweep specs and "
                    "single-cell queries over HTTP, backed by an "
                    "indexed result store.",
    )
    parser.add_argument("--host", default=env.host,
                        help="TCP bind address (default: %(default)s; "
                             "the service has no auth — think before "
                             "leaving loopback)")
    parser.add_argument("--port", type=int, default=env.port,
                        help="TCP port; 0 picks a free one "
                             "(default: $REPRO_SERVE_PORT or 8177)")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="serve on a unix-domain socket at PATH "
                             "instead of TCP")
    parser.add_argument("--store", default=env.store_path,
                        help="sqlite result store path (default: "
                             "$REPRO_SERVE_STORE or serve-store.sqlite)")
    parser.add_argument("--workers", type=int, default=env.workers,
                        help="dataset-group worker processes "
                             "(default: $REPRO_SERVE_WORKERS or 2)")
    parser.add_argument("--timeout-s", type=float, default=env.timeout_s,
                        help="per-group execution timeout in seconds; "
                             "a group that exceeds it fails at once; 0 "
                             "disables (default: $REPRO_SERVE_TIMEOUT_S "
                             "or 0)")
    parser.add_argument("--ttl-s", type=float, default=env.ttl_s,
                        help="age-based TTL for stored rows; 0 disables "
                             "(default: $REPRO_SERVE_TTL_S or 0)")
    parser.add_argument("--max-rows", type=int, default=env.max_rows,
                        help="store row cap, oldest evicted first; 0 "
                             "means unbounded (default: "
                             "$REPRO_SERVE_MAX_ROWS or 0)")
    parser.add_argument("--inline", action="store_true",
                        help="run dataset groups on the executor's "
                             "threads instead of worker processes (no "
                             "timeout; single-machine debugging)")
    parser.add_argument("--migrate-from", default=None, metavar="JSONL",
                        help="before serving, migrate this v1 JSONL "
                             "store into --store")
    parser.add_argument("--migrate-only", action="store_true",
                        help="with --migrate-from: exit after the "
                             "migration instead of serving")
    parser.add_argument("--verbose", action="store_true",
                        help="log one line per HTTP request to stderr")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.migrate_only and not args.migrate_from:
        parser.error("--migrate-only requires --migrate-from")

    if args.migrate_from:
        try:
            report = migrate_jsonl_to_sqlite(args.migrate_from,
                                             args.store)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report.line())
        if args.migrate_only:
            return 0

    config = ServeConfig(
        host=args.host, port=args.port, socket_path=args.socket,
        store_path=args.store, workers=args.workers,
        timeout_s=args.timeout_s, ttl_s=args.ttl_s,
        max_rows=args.max_rows, inline=args.inline,
    )
    try:
        server = SweepServer(config, verbose=args.verbose)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if server.store.quarantined:
        print(f"warning: corrupt store quarantined to "
              f"{server.store.quarantined}", file=sys.stderr)
    print(f"serving on {server.endpoint} "
          f"(store {config.store_path}, {config.workers} workers)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
