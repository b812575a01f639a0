"""The fuzz CLI end to end, in-process."""

import json

import pytest

from repro.mem.hierarchy import MemoryHierarchy
from repro.testing import SHAPES, load_case
from repro.testing.fuzz import main


class TestCleanRuns:
    def test_small_run_passes(self, capsys):
        assert main(["--seed", "0", "--cases", str(len(SHAPES))]) == 0
        out = capsys.readouterr().out
        assert "all oracles passed" in out
        for shape in SHAPES:
            assert f"{shape}=1" in out

    def test_json_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["--seed", "3", "--cases", "7",
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["cases_run"] == 7
        assert report["failures"] == []
        assert sum(report["shape_histogram"].values()) == 7
        assert set(report["shape_histogram"]) == set(SHAPES)

    def test_path_and_shape_subsets(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["--seed", "1", "--cases", "4",
                     "--paths", "ooo,dist_da_f",
                     "--shapes", "guarded,scatter",
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["paths"] == ["ooo", "dist_da_f"]
        hist = report["shape_histogram"]
        assert hist["guarded"] == 2 and hist["scatter"] == 2
        assert hist["elementwise"] == 0

    def test_time_budget_stops_early(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert main(["--seed", "0", "--cases", "100000",
                     "--time-budget", "2",
                     "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["stopped_early"] is True
        assert report["cases_run"] < 100000


class TestFailingRuns:
    @pytest.fixture
    def fast_path_fault(self, monkeypatch):
        real = MemoryHierarchy.host_access_batch

        def perturbed(self, addrs, is_write, stream_ids):
            return real(self, addrs, is_write, stream_ids) + 1000

        monkeypatch.setattr(
            MemoryHierarchy, "host_access_batch", perturbed
        )

    def test_failures_exit_nonzero_and_fill_corpus(
            self, fast_path_fault, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        report_path = tmp_path / "report.json"
        code = main(["--seed", "0", "--cases", "2", "--paths", "ooo",
                     "--shapes", "elementwise",
                     "--corpus-dir", str(corpus),
                     "--json", str(report_path)])
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        assert report["failures"]
        assert all(f["check"] == "production-vs-reference"
                   for f in report["failures"])
        entries = sorted(corpus.glob("*.json"))
        assert len(entries) == len(report["corpus_entries"]) == 2
        for entry in entries:
            load_case(str(entry))  # every artifact replays
        err = capsys.readouterr().err
        assert "shrunk" in err

    def test_no_shrink_skips_corpus(self, fast_path_fault, tmp_path):
        corpus = tmp_path / "corpus"
        code = main(["--seed", "0", "--cases", "1", "--paths", "ooo",
                     "--shapes", "elementwise", "--no-shrink",
                     "--corpus-dir", str(corpus)])
        assert code == 1
        assert not corpus.exists()
