#!/usr/bin/env python3
"""Alternating A/B pairs on the repository benchmark, and their report.

Run pairs: each pair runs the benchmark command of ``BENCHMARK.json``
once in the parent checkout and once in the change's, for the file's
``run_seconds``, and appends both parsed results as one JSON line::

    python3 tools/ab_pairs.py --parent ../parent --change . \\
        --workload paper-matrix --seeds 1 7919 2 --out pairs.jsonl

The parent runs first in even pairs, counted over the pairs of that
workload already in the file, so a file grown over several calls still
alternates. Report: per workload and end-to-end metric, each side's
median [Q1–Q3], the change/parent ratio per pair as median (range), the
pairs the change won under the metric's ``better`` (ties are neither),
whether the change's median is worse than the parent's by more than
the metric's ``bound``, and the ``failed`` totals::

    python3 tools/ab_pairs.py --report pairs.jsonl [more.jsonl ...]

With ``--trace``, each run gets ``--trace 1`` and reports per-layer
metrics instead of end-to-end ones, and the row is marked traced. For
traced rows the report prints each layer's ``self_s`` median per side,
and lists every per-layer metric of unit ``count`` in ``BENCHMARK.json``
that differs between the two sides of any pair, with its values per
pair.

Quartiles interpolate linearly between order statistics. The tool reads
``BENCHMARK.json`` and writes only the output file it is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

REPO = Path(__file__).resolve().parent.parent
#: the benchmark's held-out seed (``perfbench/run.py``), counted per row
HELD_OUT_SEED = 7919


def load_benchmark(path: Path = REPO / "BENCHMARK.json") -> dict:
    with open(path) as f:
        return json.load(f)


def run_once(bench: dict, checkout: str, workload: str, seed: int,
             trace: bool = False) -> dict:
    """One benchmark run in ``checkout``; its last output line, parsed."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"])]
    if trace:
        cmd += ["--trace", "1"]
    out = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def read_rows(paths: Sequence[str]) -> List[dict]:
    rows = []
    for path in paths:
        with open(path) as f:
            rows += [json.loads(line) for line in f if line.strip()]
    return rows


def run_pairs(args, bench: dict) -> None:
    out = Path(args.out)
    done = sum(row["workload"] == args.workload
               for row in (read_rows([out]) if out.exists() else []))
    for k, seed in enumerate(args.seeds):
        parent_first = (done + k) % 2 == 0
        order = ("parent", "change") if parent_first else ("change",
                                                           "parent")
        row = {"workload": args.workload, "seed": seed, "first": order[0]}
        if args.trace:
            row["trace"] = 1
        for side in order:
            row[side] = run_once(bench, getattr(args, side), args.workload,
                                 seed, args.trace)
        with open(out, "a") as f:
            f.write(json.dumps(row) + "\n")
        for side in ("parent", "change"):
            values = {name: round(m["value"], 3)
                      for name, m in row[side]["metrics"].items()}
            print(f"{args.workload} seed {seed} {side}: failed "
                  f"{row[side]['failed']}, {values}", file=sys.stderr)


def quartiles(values: Sequence[float]) -> tuple:
    """(Q1, median, Q3), linear between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(rows: Sequence[dict], metric: dict) -> Dict[str, object]:
    """Every number of one report row: a workload's pairs, one metric."""
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [row["parent"]["metrics"][name]["value"] for row in rows]
    change = [row["change"]["metrics"][name]["value"] for row in rows]
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum((c > p) if higher else (c < p)
              for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    limit = p_med * (1 - metric["bound"] if higher else 1 + metric["bound"])
    return {
        "parent": (p_med, p_q1, p_q3),
        "change": (c_med, c_q1, c_q3),
        "ratio": (statistics.median(ratios), min(ratios), max(ratios)),
        "won": won,
        "pairs": len(rows),
        "breach": c_med < limit if higher else c_med > limit,
        "failed": (sum(row["parent"]["failed"] for row in rows),
                   sum(row["change"]["failed"] for row in rows)),
    }


def report(rows: Sequence[dict], bench: dict) -> str:
    plain = [row for row in rows if not row.get("trace")]
    traced = [row for row in rows if row.get("trace")]
    parts = []
    if plain:
        parts.append(end_to_end_report(plain, bench))
    if traced:
        parts.append(traced_report(traced, bench))
    return "\n\n".join(parts)


def end_to_end_report(rows: Sequence[dict], bench: dict) -> str:
    lines = [
        "| workload (pairs) | metric | parent median [Q1–Q3] "
        "| change median [Q1–Q3] | change/parent per pair, median (range) "
        "| better | worse than bound | failed (parent, change) |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload in dict.fromkeys(row["workload"] for row in rows):
        mine = [row for row in rows if row["workload"] == workload]
        at = sum(row["seed"] == HELD_OUT_SEED for row in mine)
        label = f"`{workload}` ({len(mine)}, {at} at {HELD_OUT_SEED})"
        for metric in bench["end_to_end"]:
            r = compare(mine, metric)
            lines.append(
                f"| {label} | `{metric['name']}` | {fmt(r['parent'])} "
                f"| {fmt(r['change'])} | {r['ratio'][0]:.3f} "
                f"({r['ratio'][1]:.3f}–{r['ratio'][2]:.3f}) "
                f"| {r['won']}/{r['pairs']} "
                f"| {'yes' if r['breach'] else 'no'} "
                f"| {r['failed'][0]}, {r['failed'][1]} |")
    return "\n".join(lines)


def traced_report(rows: Sequence[dict], bench: dict) -> str:
    """Per workload: each layer's ``self_s`` median per side, then the
    per-layer counts that differ between the two sides of a pair."""
    layers = [m["name"] for m in bench.get("per_layer", ())
              if m["name"].endswith(".self_s")]
    counts = [m["name"] for m in bench.get("per_layer", ())
              if m["unit"] == "count"]
    lines = [
        "| workload (traced pairs) | layer | parent self_s median "
        "| change self_s median | change/parent |",
        "|---|---|---|---|---|",
    ]
    notes = []
    for workload in dict.fromkeys(row["workload"] for row in rows):
        mine = [row for row in rows if row["workload"] == workload]

        def values(side, name):
            return [row[side]["metrics"][name]["value"] for row in mine]

        for name in layers:
            p = statistics.median(values("parent", name))
            c = statistics.median(values("change", name))
            ratio = f"{c / p:.3f}" if p else "—"
            lines.append(f"| `{workload}` ({len(mine)}) "
                         f"| `{name[:-len('.self_s')]}` | {p:.3f} "
                         f"| {c:.3f} | {ratio} |")
        differ = []
        for name in counts:
            pairs = list(zip(values("parent", name), values("change", name)))
            if any(p != c for p, c in pairs):
                per_pair = ", ".join(f"{p:g} → {c:g}" for p, c in pairs)
                differ.append(f"`{name}` ({per_pair})")
        notes.append(f"`{workload}` counts that differ (parent → change, "
                     f"per pair): {', '.join(differ) or 'none'}")
    return "\n".join(lines + [""] + notes)


def fmt(med_q1_q3: tuple) -> str:
    med, q1, q3 = med_q1_q3
    return f"{med:.2f} [{q1:.2f}–{q3:.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", nargs="+", metavar="FILE",
                        help="print the table for these pair files")
    parser.add_argument("--parent", help="the parent's checkout")
    parser.add_argument("--change", help="the change's checkout")
    parser.add_argument("--workload")
    parser.add_argument("--seeds", nargs="+", type=int)
    parser.add_argument("--out", help="pair file to append to")
    parser.add_argument("--trace", action="store_true",
                        help="run traced pairs (--trace 1)")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    if args.report:
        print(report(read_rows(args.report), bench))
        return 0
    missing = [opt for opt in ("parent", "change", "workload", "seeds",
                               "out") if not getattr(args, opt)]
    if missing:
        parser.error("running pairs needs --" + ", --".join(missing))
    run_pairs(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
