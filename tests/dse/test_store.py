"""The v1 JSON-lines loader that store migration reads through, and
the canonical row text both formats share."""

import json

import pytest

from repro.dse.store import SqliteResultStore, load_jsonl, row_text
from repro.errors import ConfigError


def row(h, status="ok", **extra):
    return {"hash": h, "version": 1, "status": status,
            "point": {}, "metrics": {}, "error": None, "attempts": 1,
            **extra}


def write_v1(path, *rows):
    """A v1 store as its writer left it: one canonical line per row."""
    with open(path, "w") as f:
        for r in rows:
            f.write(row_text(r) + "\n")


class TestRoundtrip:
    def test_missing_file_is_empty(self, tmp_path):
        # a store path that does not exist yet resumes from nothing
        with SqliteResultStore(str(tmp_path / "none.sqlite")) as store:
            assert store.load() == {}

    def test_last_row_per_hash_wins(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_v1(path, row("a", status="failed"), row("a", status="ok"))
        assert load_jsonl(path)["a"]["status"] == "ok"

    def test_row_text_canonical(self):
        a = row_text({"b": 1, "a": 2})
        b = row_text({"a": 2, "b": 1})
        assert a == b and "\n" not in a


class TestCrashTolerance:
    def test_torn_final_line_ignored(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        write_v1(path, row("a"), row("b"))
        with open(path, "a") as f:
            f.write(row_text(row("c"))[:17])  # killed mid-write
        assert set(load_jsonl(path)) == {"a", "b"}

    def test_hashless_row_rejected(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"status": "ok"}) + "\n")
        with pytest.raises(ConfigError, match="without a hash"):
            load_jsonl(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "s.jsonl")
        with open(path, "w") as f:
            f.write("\n" + row_text(row("a")) + "\n\n")
        assert set(load_jsonl(path)) == {"a"}
