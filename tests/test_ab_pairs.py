"""The A/B pair report (``tools/ab_pairs.py``) on canned pair rows; no
benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"

BENCH = {
    "command": ["python3", "perfbench/run.py"],
    "run_seconds": 30,
    "end_to_end": [
        {"name": "cells", "unit": "cells/s", "better": "higher",
         "bound": 0.24},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(cells, rss, failed=0):
    return {"failed": failed, "metrics": {"cells": {"value": cells},
                                          "rss": {"value": rss}}}


def pair(seed, parent, change, workload="paper-matrix"):
    return {"workload": workload, "seed": seed, "first": "parent",
            "parent": parent, "change": change}


#: cells: won, won, tied, lost; rss: lost, tied, won, won
ROWS = [
    pair(1, side(10.0, 100.0), side(12.0, 110.0)),
    pair(7919, side(8.0, 100.0), side(10.0, 100.0)),
    pair(2, side(9.0, 100.0), side(9.0, 90.0, failed=2)),
    pair(3, side(11.0, 100.0), side(10.0, 95.0)),
]


def test_higher_is_better_metric(tool):
    r = tool.compare(ROWS, BENCH["end_to_end"][0])
    assert r["parent"] == (9.5, 8.75, 10.25)
    assert r["change"] == (10.0, 9.75, 10.5)
    # per-pair ratios 1.2, 1.25, 1.0, 10/11
    assert r["ratio"] == (pytest.approx(1.1), pytest.approx(10 / 11), 1.25)
    assert (r["won"], r["pairs"]) == (2, 4)  # the tie counts for neither
    assert r["breach"] is False
    assert r["failed"] == (0, 2)


def test_lower_is_better_metric(tool):
    r = tool.compare(ROWS, BENCH["end_to_end"][1])
    assert r["parent"][0] == 100.0 and r["change"][0] == 97.5
    assert r["won"] == 2  # lower rss wins; 110 lost, 100 tied


def test_bound_breach(tool):
    slow = [pair(s, side(10.0, 100.0), side(7.0, 116.0)) for s in (1, 2)]
    higher, lower = (tool.compare(slow, m) for m in BENCH["end_to_end"])
    assert higher["breach"] and lower["breach"]  # 30% and 16% worse
    near = [pair(s, side(10.0, 100.0), side(7.7, 114.0)) for s in (1, 2)]
    higher, lower = (tool.compare(near, m) for m in BENCH["end_to_end"])
    assert not higher["breach"] and not lower["breach"]


def test_report_table(tool, tmp_path, monkeypatch, capsys):
    rows = ROWS + [pair(1, side(5.0, 90.0), side(5.0, 90.0),
                        workload="fresh-traces")]
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    monkeypatch.setattr(tool, "load_benchmark", lambda: BENCH)
    assert tool.main(["--report", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 2 * 2  # header, rule, 2 metrics x 2 workloads
    assert lines[2] == (
        "| `paper-matrix` (4, 1 at 7919) | `cells` | 9.50 [8.75–10.25] "
        "| 10.00 [9.75–10.50] | 1.100 (0.909–1.250) | 2/4 | no | 0, 2 |")
    assert lines[4].startswith("| `fresh-traces` (1, 0 at 7919) | `cells` "
                               "| 5.00 [5.00–5.00] |")


def traced_side(events_s, accounting_calls, events_calls=100):
    return {"failed": 0, "metrics": {
        "events.self_s": {"value": events_s},
        "events.calls": {"value": events_calls},
        "mem.accounting.calls": {"value": accounting_calls},
        "trace.overhead_ratio": {"value": 1.5},
    }}


def test_traced_rows_report_layers_and_differing_counts(tool, tmp_path,
                                                        monkeypatch,
                                                        capsys):
    bench = dict(BENCH, per_layer=[
        {"name": "events.calls", "unit": "count", "better": "lower"},
        {"name": "events.self_s", "unit": "s", "better": "lower"},
        {"name": "mem.accounting.calls", "unit": "count",
         "better": "lower"},
        {"name": "trace.overhead_ratio", "unit": "ratio",
         "better": "lower"},
    ])
    traced = [dict(pair(s, traced_side(p, 475), traced_side(c, 0)), trace=1)
              for s, p, c in ((1, 2.0, 1.0), (2, 4.0, 3.0))]
    path = tmp_path / "pairs.jsonl"
    path.write_text("".join(json.dumps(row) + "\n"
                            for row in ROWS[:1] + traced))
    monkeypatch.setattr(tool, "load_benchmark", lambda: bench)
    assert tool.main(["--report", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    # the untraced row keeps its end-to-end table, then a blank line
    assert out[2].startswith("| `paper-matrix` (1, 0 at 7919) | `cells` ")
    assert out[4:] == [
        "",
        "| workload (traced pairs) | layer | parent self_s median "
        "| change self_s median | change/parent |",
        "|---|---|---|---|---|",
        "| `paper-matrix` (2) | `events` | 3.000 | 2.000 | 0.667 |",
        "",
        "`paper-matrix` counts that differ (parent → change, per pair): "
        "`mem.accounting.calls` (475 → 0, 475 → 0)",
    ]
