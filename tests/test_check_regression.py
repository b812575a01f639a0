"""The bench regression guard (``benchmarks/perf/check_regression.py``)
on small hand-written report files."""

import importlib.util
import json
from pathlib import Path

import pytest

GUARD = (Path(__file__).resolve().parent.parent / "benchmarks" / "perf"
         / "check_regression.py")


@pytest.fixture(scope="module")
def guard():
    spec = importlib.util.spec_from_file_location("check_regression", GUARD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def report(tmp_path, name, **rates):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({
        "identical_results": True,
        "modes": [{"mode": mode, "cells_per_s": rate}
                  for mode, rate in rates.items()],
    }))
    return str(path)


def test_shared_mode_within_tolerance_passes(guard, tmp_path):
    base = report(tmp_path, "base", production=5.0, reference=1.0)
    fresh = report(tmp_path, "fresh", production=4.5, reference=1.1)
    assert guard(["--baseline", base, "--fresh", fresh]) == 0


def test_shared_mode_regression_fails(guard, tmp_path, capsys):
    base = report(tmp_path, "base", production=5.0)
    fresh = report(tmp_path, "fresh", production=3.0)
    assert guard(["--baseline", base, "--fresh", fresh]) == 1
    assert "mode 'production'" in capsys.readouterr().err


def test_no_shared_mode_fails(guard, tmp_path, capsys):
    base = report(tmp_path, "base", vec=5.0, scalar=1.3)
    fresh = report(tmp_path, "fresh", production=5.0, reference=1.0)
    assert guard(["--baseline", base, "--fresh", fresh]) == 1
    assert "no mode in common" in capsys.readouterr().err
