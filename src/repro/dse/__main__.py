"""Design-space sweep CLI.

Usage::

    python -m repro.dse --spec wss --report            # shipped spec
    python -m repro.dse --spec sweep.json --jobs 8
    python -m repro.dse --spec clocking --resume       # continue a
                                                       # killed sweep
    python -m repro.dse --list-specs
    python -m repro.dse --spec smoke --dry-run         # expansion only

Every completed point is committed to an indexed sqlite store (default
``dse-<name>.sqlite``; ``--store`` overrides). A store file that is not
a readable sqlite database is quarantined with a warning and the sweep
starts a fresh one (``python -m repro.serve --migrate-from`` converts a
v1 JSON-lines store). ``--resume`` skips points already stored ``ok``
and retries ``failed`` ones, so a killed sweep continues where it
stopped and a finished sweep becomes a no-op whose ``--report`` is pure
post-processing. With ``--jobs N``, a dataset group whose worker process
dies or times out is recorded as ``failed`` rows; the other groups run
on. Exit status is 1 when any point ends ``failed`` or any measured
metric escapes its AN-C static bound, 2 for bad specs/arguments.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..errors import ConfigError
from ..obs import OBS
from .report import bound_escapes, format_report
from .scheduler import run_sweep
from .spec import load_spec, shipped_specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Declarative design-space sweeps over machine "
                    "parameters, workloads and offload configurations.",
    )
    parser.add_argument("--spec", default=None,
                        help="sweep spec: a shipped name "
                             f"({', '.join(sorted(shipped_specs()))}) "
                             "or a JSON file path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--store", default=None,
                        help="sqlite result store path "
                             "(default: dse-<name>.sqlite)")
    parser.add_argument("--resume", action="store_true",
                        help="skip points already stored ok; retry "
                             "failed ones")
    parser.add_argument("--report", action="store_true",
                        help="print sensitivity tables and the "
                             "energy/time Pareto frontier")
    parser.add_argument("--out", default=None,
                        help="also write the report to this file")
    parser.add_argument("--stats", action="store_true",
                        help="append the run-observability report")
    parser.add_argument("--dry-run", action="store_true",
                        help="expand and print the point matrix, run "
                             "nothing")
    parser.add_argument("--list-specs", action="store_true",
                        help="list shipped sweep specs and exit")
    args = parser.parse_args(argv)

    if args.list_specs:
        for name, path in sorted(shipped_specs().items()):
            print(f"{name:12} {path}")
        return 0
    if not args.spec:
        parser.error("--spec is required (or use --list-specs)")

    try:
        spec = load_spec(args.spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    points = spec.points()
    if args.dry_run:
        print(f"sweep {spec.name!r}: {len(points)} points "
              f"({len(spec.workloads)} workloads x "
              f"{len(spec.configs)} configs, scale={spec.scale}, "
              f"base={spec.base})")
        for point in points:
            print(f"  {point.workload:>5} x {point.config:<12} "
                  f"machine={dict(point.machine_overrides)} "
                  f"dataset={dict(point.workload_kwargs)}")
        return 0

    store_path = args.store or f"dse-{spec.name}.sqlite"
    start = time.time()

    def progress(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    result = run_sweep(
        spec, jobs=args.jobs, store_path=store_path,
        resume=args.resume, progress=progress,
    )
    failed = result.failed_rows()
    print(f"sweep {spec.name!r}: {len(result.rows)} points in "
          f"{time.time() - start:.1f}s "
          f"({len(result.ok_rows())} ok, {len(failed)} failed, "
          f"{len(result.pruned_rows())} pruned, "
          f"{result.skipped} resumed) -> {store_path}")
    if args.report:
        report = format_report(result)
        print(report)
        if args.out:
            with open(args.out, "w") as f:
                f.write(report)
            print(f"report written to {args.out}")
    if args.stats:
        print(OBS.report())
    escapes = bound_escapes(result)
    for e in escapes:
        print(f"error: AN-C bound escape: {e['point']['workload']} x "
              f"{e['point']['config']} {e['metric']} measured "
              f"{e['measured']:g} outside [{e['lo']:g}, {e['hi']:g}]",
              file=sys.stderr)
    return 1 if (failed or escapes) else 0


if __name__ == "__main__":
    sys.exit(main())
