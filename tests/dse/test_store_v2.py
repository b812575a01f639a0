"""The sqlite result store: migration, crash paths, eviction, semantics.

Pins the store contract: every path opens the sqlite store, migration
from a v1 JSONL file is row-for-row byte-lossless, a corrupt database
file (a v1 JSONL file passed as a store included) is quarantined instead
of crashing the opener, TTL/row-cap eviction never touches row payloads,
and ``attempts`` reflects the last-written row only
(``TestAttemptsSemantics`` is referenced from the module docstring of
``repro.dse.store``). Also pins ``REPRO_SERVE_TTL_S`` /
``REPRO_SERVE_MAX_ROWS`` flowing into the store via ServeConfig, and
the ``--resume`` progress line reporting the skipped stored-ok count.
"""

import os

import pytest

from repro.dse.scheduler import run_sweep
from repro.dse.spec import SweepSpec
from repro.dse.store import (
    SqliteResultStore,
    load_jsonl,
    migrate_jsonl_to_sqlite,
    open_result_store,
    row_text,
    store_digest,
)
from repro.errors import ConfigError


def mkrow(h, status="ok", attempts=1, t=1.0):
    return {"hash": h, "version": 1, "status": status,
            "point": {"workload": "fdt", "config": "dist_da_f"},
            "metrics": {"time_s": t} if status == "ok" else None,
            "error": None if status == "ok" else "E: boom",
            "attempts": attempts}


def write_v1(path, *rows):
    """A v1 JSONL store as its writer left it: one line per row."""
    with open(path, "w") as f:
        for row in rows:
            f.write(row_text(row) + "\n")


def sweep_spec():
    return SweepSpec(
        name="v2", workloads=("fdt",), configs=("dist_da_f",),
        scale="tiny", base="experiment",
        machine_axes={"accel_freq_ghz": (1.0, 2.0)},
    )


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("store.sqlite", SqliteResultStore),
        ("store.sqlite3", SqliteResultStore),
        ("store.db", SqliteResultStore),
        ("store.jsonl", SqliteResultStore),
    ])
    def test_suffix_selects_format(self, tmp_path, name, cls):
        # one format: the suffix no longer chooses anything
        store = open_result_store(str(tmp_path / name))
        assert isinstance(store, cls)
        store.close()

    def test_none_path_is_no_store(self):
        assert open_result_store(None) is None

    def test_magic_header_beats_missing_suffix(self, tmp_path):
        # an existing sqlite store keeps its rows whatever its name
        path = str(tmp_path / "store.data")
        with SqliteResultStore(path) as s:
            s.append(mkrow("aa"))
        reopened = open_result_store(path)
        assert isinstance(reopened, SqliteResultStore)
        assert reopened.get("aa")["hash"] == "aa"
        reopened.close()


class TestMigration:
    def test_round_trip_is_byte_lossless(self, tmp_path):
        jsonl = str(tmp_path / "v1.jsonl")
        write_v1(jsonl, mkrow("aa"), mkrow("bb"), mkrow("cc"),
                 mkrow("bb", status="failed", attempts=2))  # shadows
        with open(jsonl, "a") as f:
            f.write('{"hash": "torn')  # killed writer's partial line

        report = migrate_jsonl_to_sqlite(jsonl)
        assert report.rows == 3
        assert report.target == str(tmp_path / "v1.sqlite")
        assert "migrated 3 rows" in report.line()

        v1_rows = load_jsonl(jsonl)
        with SqliteResultStore(report.target) as v2:
            v2_rows = v2.load()
            assert {h: row_text(r) for h, r in v2_rows.items()} \
                == {h: row_text(r) for h, r in v1_rows.items()}
            assert v2_rows["bb"]["status"] == "failed"  # last row wins
            assert store_digest(v2) == report.digest
        assert os.path.exists(jsonl)  # source kept for verification

    def test_refuses_existing_target_unless_overwrite(self, tmp_path):
        jsonl = str(tmp_path / "v1.jsonl")
        write_v1(jsonl, mkrow("aa"))
        target = str(tmp_path / "v2.sqlite")
        with SqliteResultStore(target) as s:
            s.append(mkrow("zz"))
        with pytest.raises(ConfigError):
            migrate_jsonl_to_sqlite(jsonl, target)
        report = migrate_jsonl_to_sqlite(jsonl, target, overwrite=True)
        assert report.rows == 1
        with SqliteResultStore(target) as s:
            assert s.get("zz") is None  # replaced, not merged

    def test_rejects_bad_sources(self, tmp_path):
        with pytest.raises(ConfigError):
            migrate_jsonl_to_sqlite(str(tmp_path / "absent.jsonl"))
        sqlite_src = str(tmp_path / "already.sqlite")
        SqliteResultStore(sqlite_src).close()
        with pytest.raises(ConfigError):
            migrate_jsonl_to_sqlite(sqlite_src)


class TestCorruptionQuarantine:
    def test_torn_file_is_quarantined_not_fatal(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with open(path, "wb") as f:
            f.write(b"SQLite format 3\x00" + b"\xde\xad" * 512)
        store = SqliteResultStore(path)
        try:
            assert store.quarantined == path + ".corrupt"
            assert os.path.exists(store.quarantined)
            assert store.count() == 0  # fresh, usable store
            store.append(mkrow("aa"))
            assert store.get("aa")["status"] == "ok"
        finally:
            store.close()

    def test_second_quarantine_does_not_clobber_first(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        for expected in (path + ".corrupt", path + ".corrupt-2"):
            with open(path, "wb") as f:
                f.write(b"SQLite format 3\x00garbage")
            store = SqliteResultStore(path)
            assert store.quarantined == expected
            store.close()
            os.remove(path)
        assert os.path.exists(path + ".corrupt")
        assert os.path.exists(path + ".corrupt-2")


class TestEviction:
    def test_ttl_evicts_only_expired_rows(self, tmp_path, monkeypatch):
        import repro.dse.store as store_mod

        clock = {"now": 100.0}
        monkeypatch.setattr(store_mod.time, "time",
                            lambda: clock["now"])
        with SqliteResultStore(str(tmp_path / "ttl.sqlite"),
                               ttl_s=10.0) as store:
            store.append(mkrow("old"))
            clock["now"] = 200.0
            store.append(mkrow("new"))
            assert store.evict_expired(now=205.0) == 1
            assert store.get("old") is None
            assert store.get("new") is not None
            assert store.evict_expired(now=205.0) == 0

    def test_ttl_zero_disables_expiry(self, tmp_path):
        with SqliteResultStore(str(tmp_path / "nottl.sqlite"),
                               ttl_s=0.0) as store:
            store.append(mkrow("aa"))
            assert store.evict_expired(now=1e12) == 0
            assert store.count() == 1

    def test_rewrite_refreshes_row_age(self, tmp_path, monkeypatch):
        import repro.dse.store as store_mod

        clock = {"now": 100.0}
        monkeypatch.setattr(store_mod.time, "time",
                            lambda: clock["now"])
        with SqliteResultStore(str(tmp_path / "ttl.sqlite"),
                               ttl_s=10.0) as store:
            store.append(mkrow("aa"))
            clock["now"] = 200.0
            store.append(mkrow("aa", t=2.0))  # re-written: age resets
            assert store.evict_expired(now=205.0) == 0
            assert store.get("aa")["metrics"]["time_s"] == 2.0

    def test_max_rows_evicts_oldest_first(self, tmp_path):
        with SqliteResultStore(str(tmp_path / "cap.sqlite"),
                               max_rows=2) as store:
            for h in ("aa", "bb", "cc"):
                store.append(mkrow(h))
            assert store.count() == 2
            assert store.get("aa") is None
            assert list(store.load()) == ["bb", "cc"]

    def test_eviction_metadata_never_leaks_into_rows(self, tmp_path):
        row = mkrow("aa")
        with SqliteResultStore(str(tmp_path / "x.sqlite"),
                               ttl_s=5.0, max_rows=10) as store:
            store.append(row)
            assert row_text(store.get("aa")) == row_text(row)


class TestAttemptsSemantics:
    """``attempts`` is the last-written row's count, not a running sum
    (documented in the ``repro.dse.store`` module docstring)."""

    @pytest.mark.parametrize("name", ["a.jsonl", "a.sqlite"])
    def test_retry_row_shadows_old_attempts(self, tmp_path, name):
        store = open_result_store(str(tmp_path / name))
        store.append(mkrow("aa", status="failed", attempts=2))
        store.append(mkrow("aa", status="ok", attempts=1))
        loaded = store.load()["aa"]
        assert loaded["status"] == "ok"
        assert loaded["attempts"] == 1  # not 3: old row is shadowed
        assert store.get("aa")["attempts"] == 1
        store.close()


class TestSweepIntegration:
    def test_sqlite_store_rows_match_run_sweep(self, tmp_path):
        path = str(tmp_path / "sweep.sqlite")
        result = run_sweep(sweep_spec(), jobs=1, store_path=path)
        assert len(result.ok_rows()) == 2
        with SqliteResultStore(path) as store:
            stored = store.load()
            assert {h: row_text(r) for h, r in stored.items()} \
                == {h: row_text(r) for h, r in result.rows.items()}

    def test_resume_logs_skipped_stored_ok_count(self, tmp_path):
        path = str(tmp_path / "sweep.sqlite")
        first = run_sweep(sweep_spec(), jobs=1, store_path=path)

        lines = []
        resumed = run_sweep(sweep_spec(), jobs=1, store_path=path,
                            resume=True, progress=lines.append)
        assert {h: row_text(r) for h, r in resumed.rows.items()} \
            == {h: row_text(r) for h, r in first.rows.items()}
        resume_lines = [ln for ln in lines if "resume from" in ln]
        assert resume_lines, lines
        assert "skipped 2 of 2 stored-ok hashes" in resume_lines[0]
        assert "(2 stored rows)" in resume_lines[0]

    def test_jsonl_resume_logs_too(self, tmp_path):
        """A v1 JSONL file passed as the store is quarantined with a
        warning, and the resume says it found nothing to skip."""
        path = str(tmp_path / "sweep.jsonl")
        write_v1(path, mkrow("aa"))
        lines = []
        result = run_sweep(sweep_spec(), jobs=1, store_path=path,
                           resume=True, progress=lines.append)
        assert lines[0] == (f"warning: corrupt store quarantined to "
                            f"{path}.corrupt")
        assert any("skipped 0 of 0 stored-ok hashes" in ln
                   for ln in lines)
        assert len(result.ok_rows()) == 2
        assert load_jsonl(path + ".corrupt") == {"aa": mkrow("aa")}
