#!/usr/bin/env python
"""Bench regression guard: fresh throughput vs the committed baseline.

Compares a freshly measured ``BENCH_matrix.json`` (``--fresh``) against
the committed one (``--baseline``) mode by mode on ``cells_per_s`` and
exits non-zero when any mode regressed by more than the threshold
(default 25%, tunable with ``--max-regression`` or the
``REPRO_BENCH_MAX_REGRESSION`` environment variable — see
EXPERIMENTS.md). Absolute wall numbers move with the runner hardware;
the committed baseline is refreshed whenever a PR intentionally changes
performance, so the guard only catches *unintentional* slowdowns larger
than run-to-run noise.

A fresh report whose cross-mode identity check failed
(``identical_results: false``) also fails the guard — a production mode
that no longer matches the reference bit for bit is worse than a slow
one. So do two reports that share no mode: after a mode rename the
guard would otherwise compare nothing and pass.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf/bench_matrix.py \
        --scale small --out /tmp/BENCH_fresh.json
    python benchmarks/perf/check_regression.py \
        --baseline benchmarks/perf/BENCH_matrix.json \
        --fresh /tmp/BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default="benchmarks/perf/BENCH_matrix.json",
                        help="committed benchmark report")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured benchmark report")
    parser.add_argument("--max-regression", type=float,
                        default=float(os.environ.get(
                            "REPRO_BENCH_MAX_REGRESSION", "0.25")),
                        help="maximum tolerated fractional cells/s drop "
                             "per mode (default 0.25)")
    args = parser.parse_args(argv)

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures = []
    if fresh.get("identical_results") is False:
        failures.append(
            "fresh run's cross-mode identity check failed: "
            + ", ".join(fresh.get("mismatched_cells", []))
        )

    base_rates = {m["mode"]: m.get("cells_per_s")
                  for m in baseline.get("modes", [])}
    fresh_modes = [m["mode"] for m in fresh.get("modes", [])]
    if not set(fresh_modes) & set(base_rates):
        failures.append(
            f"no mode in common: baseline has {sorted(base_rates)}, "
            f"fresh has {sorted(fresh_modes)}"
        )
    for mode in fresh.get("modes", []):
        name = mode["mode"]
        base = base_rates.get(name)
        rate = mode.get("cells_per_s")
        if not base or not rate:
            continue  # mode absent from the baseline, or a zero-cell run
        change = rate / base - 1.0
        status = "ok"
        if -change > args.max_regression:
            status = "REGRESSED"
            failures.append(
                f"mode {name!r}: {rate} cells/s vs baseline {base} "
                f"({change:+.1%}, tolerance -{args.max_regression:.0%})"
            )
        print(f"{name:>10}: {rate:8.3f} cells/s "
              f"(baseline {base:8.3f}, {change:+.1%}) {status}")

    if failures:
        print("\nbench regression guard FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        return 1
    print("bench regression guard passed "
          f"(tolerance {args.max_regression:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
