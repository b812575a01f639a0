"""Differential conformance fuzzing CLI.

Usage::

    python -m repro.testing.fuzz --seed 0 --cases 200
                                 [--machines]
                                 [--time-budget SECONDS]
                                 [--paths ooo,dist_da_f,...]
                                 [--shapes elementwise,guarded,...]
                                 [--json report.json]
                                 [--corpus-dir DIR]
                                 [--no-shrink]

Generates structured kernels/workloads (:mod:`repro.testing.genkernel`),
runs each through every requested configuration on the production
path and under ``REPRO_REFERENCE=1`` (two simulations per
configuration, 12 for the default six), and checks the differential
oracles (:mod:`repro.testing.oracle`). With ``--machines``, every case
also draws a seeded random machine document
(:mod:`repro.testing.genmachine`) and the whole oracle battery —
including the ``production-vs-reference`` identity and the AN-C
``static-cost-bounds`` interval checks — runs on that machine instead
of the default, so random machines x random kernels are crossed in one
sweep. Failing cases are greedily minimized
(:mod:`repro.testing.shrink`) and written to ``--corpus-dir`` as JSON
for deterministic replay; the exit status is nonzero whenever any
oracle failed. A shape histogram is always reported so a run can prove
it exercised nested-loop / ``When`` / indirect / reduction kernels and
not just the easy elementwise ones, alongside the AN-C static-bound
tally (cases checked / violations) for the interval-soundness oracle.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import List, Optional, Sequence

from ..params import experiment_machine
from .genkernel import SHAPES, case_stream, shape_histogram
from .genmachine import generate_machine_doc, machine_histogram
from .oracle import DEFAULT_PATHS, DifferentialOracle, OracleReport
from .shrink import save_corpus_entry, shrink


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential conformance fuzzing over generated "
                    "kernels (interpreter vs. engine vs. batched replay).",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="master RNG seed (default 0)")
    parser.add_argument("--cases", type=int, default=100,
                        help="number of generated cases (default 100)")
    parser.add_argument("--machines", action="store_true",
                        help="random-machine axis: attach a seeded random "
                             "machine document to every case so the "
                             "oracles run on that machine instead of the "
                             "default")
    parser.add_argument("--time-budget", type=float, default=None,
                        help="stop generating after this many seconds")
    parser.add_argument("--paths", default=",".join(DEFAULT_PATHS),
                        help="comma-separated simulator configurations "
                             f"(default: {','.join(DEFAULT_PATHS)})")
    parser.add_argument("--shapes", default=",".join(SHAPES),
                        help="comma-separated kernel shapes to emit "
                             f"(default: {','.join(SHAPES)})")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable report to FILE")
    parser.add_argument("--corpus-dir", default=None, metavar="DIR",
                        help="write shrunk failing cases to DIR "
                             "(default: no corpus output)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimization of failing cases")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    paths = tuple(p for p in args.paths.split(",") if p)
    shapes = tuple(s for s in args.shapes.split(",") if s)
    machine = experiment_machine()
    oracle = DifferentialOracle(paths, machine)

    start = time.monotonic()
    reports: List[OracleReport] = []
    cases = []
    corpus_paths: List[str] = []
    stopped_early = False
    # independent sub-stream so --machines never perturbs which kernels
    # a given --seed generates
    machine_rng = random.Random(args.seed ^ 0x6D61_6368)
    for case in case_stream(args.seed, args.cases, shapes=shapes):
        if (args.time_budget is not None
                and time.monotonic() - start > args.time_budget):
            stopped_early = True
            break
        if args.machines:
            case.machine_doc = generate_machine_doc(
                machine_rng.getrandbits(32))
        cases.append(case)
        report = oracle.check_case(case)
        reports.append(report)
        if report.ok:
            continue
        for failure in report.failures:
            print(f"FAIL {failure.format()}", file=sys.stderr, flush=True)
        if args.no_shrink:
            continue
        minimal = shrink(
            case, lambda c: not oracle.check_case(c).ok,
        )
        print(
            f"shrunk {case.name}: size {case.size()} -> {minimal.size()}",
            file=sys.stderr, flush=True,
        )
        if args.corpus_dir:
            path = save_corpus_entry(minimal, args.corpus_dir)
            corpus_paths.append(path)
            print(f"corpus entry written: {path}", file=sys.stderr,
                  flush=True)

    failures = [f for r in reports for f in r.failures]
    hist = shape_histogram(cases)
    elapsed = time.monotonic() - start
    by_check: dict = {}
    for f in failures:
        by_check[f.check] = by_check.get(f.check, 0) + 1
    static_bound_fails = by_check.get("static-cost-bounds", 0)
    summary = {
        "seed": args.seed,
        "cases_requested": args.cases,
        "cases_run": len(reports),
        "stopped_early": stopped_early,
        "paths": list(paths),
        "elapsed_s": round(elapsed, 2),
        "shape_histogram": hist,
        "failures_by_check": dict(sorted(by_check.items())),
        "machines": {
            "enabled": bool(args.machines),
            "cluster_histogram": machine_histogram(
                [c.machine_doc for c in cases]),
        },
        "static_bounds": {
            "cases_checked": len(reports),
            "violations": static_bound_fails,
        },
        "failures": [
            {"case": f.case, "check": f.check, "config": f.config,
             "message": f.message}
            for f in failures
        ],
        "corpus_entries": corpus_paths,
        "ok": not failures,
    }
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    hist_line = "  ".join(f"{k}={v}" for k, v in hist.items())
    print(f"[fuzz] {len(reports)} cases in {elapsed:.1f}s "
          f"across {len(paths)} paths x production/reference "
          f"({2 * len(paths)} simulations per case)")
    print(f"[fuzz] shapes: {hist_line}")
    if args.machines:
        mach_line = "  ".join(
            f"clusters={k}:{v}" for k, v in
            machine_histogram([c.machine_doc for c in cases]).items()
        )
        print(f"[fuzz] machines: {mach_line}")
    print(f"[fuzz] static cost bounds (AN-C): {len(reports)} cases "
          f"checked, {static_bound_fails} violation(s)")
    if failures:
        print(f"[fuzz] {len(failures)} oracle failure(s) in "
              f"{len({f.case for f in failures})} case(s)")
        return 1
    print("[fuzz] all oracles passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
