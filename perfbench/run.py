#!/usr/bin/env python3
"""Run one benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper-matrix --seed 0 \\
        --seconds 30 --trace 0

Run it from the repository root. Every number is host time, never
simulated time. Each run is a fresh process, so imports, the trace
cache and the interpreter's compile cache start cold, as they do for a
user. Throughput is per CPU second of the (serial) benchmark process,
converted to seconds of a reference host (``refclock.py``): on a shared
host, wall time also counts the time other tenants hold the CPU, and the
speed of a CPU second itself moves by up to 20% within seconds.
Set-up time is the process's CPU time from its start to the first timed
cell. The last line of standard output is::

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

``attempted`` counts simulated cells and ``failed`` those that raised,
came back as a ``failed`` sweep row, failed output validation, or whose
simulated record's digest differs from ``expected.json``.

``--trace 0`` reports the end-to-end metrics (:data:`END_TO_END`).
``--trace 1`` first runs the same inputs untraced in a child process,
then runs them with every layer wrapped (``tracing.py``) and reports
the per-layer metrics (:func:`per_layer_units`); the spans are written
to ``.perfbench_out/``.

``--scale tiny`` shrinks the workloads for smoke tests. The seed
:data:`HELD_OUT_SEED` is reserved for checking a claimed gain on a seed
that was not used while the change was made.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: never used while tuning the benchmark or a change
HELD_OUT_SEED = 7919

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "cells_per_ref_cpu_s": "cells/ref-cpu-s",
    "sim_minst_per_ref_cpu_s": "Minst/ref-cpu-s",
    "peak_rss_mb": "MB",
}

#: set-up is measured this many times per run (the run's own, then
#: fresh child processes) and reported as the median
SETUP_SAMPLES = 5

#: per-layer counts read from the program's own registry (``repro.obs``)
OBS_COUNTS = {
    "sim.tracecache.hits": "tracecache.hits",
    "sim.tracecache.spills": "tracecache.spills",
    "sim.tracecache.disk_loads": "tracecache.disk_loads",
    "runtime.offload_runs": "engine.offload_runs",
    "events.executed": "engine.sim_events",
    "events.fastforwards": "engine.sim_fastforwards",
    **{f"mem.{x}_accesses": f"mem.{x}_accesses"
       for x in ("l1", "l2", "l3", "acp", "dram")},
}


def per_layer_units():
    """Per-layer metric -> unit, in report order."""
    from tracing import LAYER_NAMES, NEST_COUNTS

    units = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in ("ir.trace_elems",) + NEST_COUNTS + tuple(OBS_COUNTS):
        units[name] = "count"
    for name in ("sim.tracecache.hit_ratio",
                 "runtime.fastsim_analytic_ratio", "trace.overhead_ratio"):
        units[name] = "ratio"
    units["trace.unattributed_s"] = "s"
    return units


def _fail(message: str) -> SystemExit:
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(2)


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path; refuse any other
    copy of the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise _fail(f"no program source under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise _fail(f"imported repro from {repro.__file__}, not {SRC}")


def _child(args, *extra) -> dict:
    """Run this script again in a child process; return its last line."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale, *extra]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=170, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def per_layer(tracer, counters, window, cpu, untraced_cpu):
    """Every per-layer metric; 0 where a layer did no work."""
    from tracing import covered_seconds, layer_totals

    out = dict.fromkeys(per_layer_units(), 0)
    out.update(layer_totals(tracer.spans))
    out.update(tracer.counts)
    out.update({name: counters.get(key, 0)
                for name, key in OBS_COUNTS.items()})
    gets = counters.get("tracecache.hits", 0) + counters.get(
        "tracecache.misses", 0)
    runs = counters.get("engine.offload_runs", 0)
    wall = window[1] - window[0]
    out.update({
        "sim.tracecache.hit_ratio":
            counters.get("tracecache.hits", 0) / gets if gets else 0,
        "runtime.fastsim_analytic_ratio":
            counters.get("engine.fastsim_runs", 0) / runs if runs else 0,
        "trace.overhead_ratio": cpu / untraced_cpu,
        "trace.unattributed_s":
            wall - covered_seconds(tracer.spans, *window),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("small", "tiny"),
                        default="small")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--cpu-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise _fail(f"unknown workload {args.workload!r}; "
                    f"known: {sorted(WORKLOADS)}")
    tmp = os.path.join(ROOT, ".perfbench_tmp",
                       f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    # any temporary file (sqlite's included) stays inside the checkout
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = tmp
    try:
        return _run(args, WORKLOADS[args.workload], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, cls, tmp) -> int:
    from refclock import RefClock
    from repro.obs import OBS
    from tracing import Tracer
    from workloads import Checker

    untraced_cpu = None
    if args.trace:
        cpu_file = os.path.join(tmp, "untraced.json")
        _child(args, "--trace", "0", "--cpu-out", cpu_file)
        with open(cpu_file) as f:
            untraced_cpu = json.load(f)["cpu_s"]

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f).get(f"{cls.NAME}@{args.scale}", {})
    workload = cls()
    workload.setup(cls.inputs(args.seed, args.scale, args.seconds),
                   Checker(expected), tmp)
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer()
    clock = RefClock(calibrate=not args.trace)
    OBS.reset()
    if args.trace:
        tracer.install()
    try:
        start = time.perf_counter()
        clock.start()
        ops = workload.run(clock.tick)
        clock.tick()
        window, cpu = (start, time.perf_counter()), clock.cpu_s
    finally:
        tracer.restore()
    if args.cpu_out:
        with open(args.cpu_out, "w") as f:
            json.dump({"cpu_s": cpu}, f)

    if args.trace:
        values = per_layer(tracer, OBS.counters, window, cpu, untraced_cpu)
        units = per_layer_units()
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(
            out_dir, f"spans-{cls.NAME}-seed{args.seed}.jsonl.gz"))
    else:
        setups = [setup_s] + [_child(args, "--setup-only")["setup_s"]
                              for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "setup_s": statistics.median(setups),
            "cells_per_ref_cpu_s": len(ops) / clock.ref_s,
            "sim_minst_per_ref_cpu_s":
                sum(op.insts for op in ops) / clock.ref_s / 1e6,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    failed = [op for op in ops if not op.ok]
    for op in failed[:10]:
        print(f"perfbench: FAILED {op.key}: {op.error}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
