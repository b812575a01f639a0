"""Matrix headline numbers vs. the committed golden snapshot, and
byte-identical serial/parallel snapshots (cross-process determinism)."""

import json

import pytest

from repro.testing.golden import (
    GOLDEN_PATH,
    diff_snapshots,
    load_snapshot,
    main,
    matrix_snapshot,
    snapshot_text,
    write_snapshot,
)

# a small slice so the process pool comparison stays fast
SUB_WORKLOADS = ("cho", "nw")
SUB_CONFIGS = ("ooo", "dist_da_io", "dist_da_f")


@pytest.fixture(scope="module")
def tiny_snapshot():
    return matrix_snapshot(scale="tiny")


class TestGoldenSnapshot:
    def test_committed_snapshot_exists(self):
        snap = load_snapshot(GOLDEN_PATH)
        assert snap["scale"] == "tiny"
        assert snap["cells"]

    def test_matrix_matches_committed_snapshot(self, tiny_snapshot):
        expected = load_snapshot(GOLDEN_PATH)
        lines = diff_snapshots(expected, tiny_snapshot)
        assert not lines, (
            "matrix headline numbers diverged from tests/golden/ — if the "
            "model change is intended, refresh with `python -m "
            f"repro.testing.golden --update`:\n" + "\n".join(lines)
        )

    def test_every_cell_validated(self, tiny_snapshot):
        for w, configs in tiny_snapshot["cells"].items():
            for c, record in configs.items():
                assert record["validated"], (w, c)
                assert record["time_ps"] > 0, (w, c)
                assert record["energy_pj"] > 0, (w, c)

    def test_snapshot_text_round_trips(self, tiny_snapshot):
        text = snapshot_text(tiny_snapshot)
        assert snapshot_text(json.loads(text)) == text

    def test_diff_reports_field_changes(self, tiny_snapshot):
        mutated = json.loads(snapshot_text(tiny_snapshot))
        w = sorted(mutated["cells"])[0]
        c = sorted(mutated["cells"][w])[0]
        mutated["cells"][w][c]["insts"] += 1
        lines = diff_snapshots(tiny_snapshot, mutated)
        assert len(lines) == 1
        assert f"{w}/{c}.insts" in lines[0]

    def test_diff_reports_ledger_split_changes(self, tiny_snapshot):
        """Moving counts between traffic classes or energy events, with
        the totals unchanged, is a divergence."""
        mutated = json.loads(snapshot_text(tiny_snapshot))
        w = sorted(mutated["ledgers"])[0]
        c = sorted(mutated["ledgers"][w])[0]
        ledger = mutated["ledgers"][w][c]
        split = ledger["traffic_breakdown"]
        split["ctrl"] += 8.0
        split["data"] -= 8.0
        counts = ledger["energy_counts"]
        counts["l3.l3_access"] += 1.0
        counts["l3_remote.l3_access"] = 1.0
        lines = diff_snapshots(tiny_snapshot, mutated)
        assert lines == [
            f"ledgers.{w}/{c}.energy_counts.l3.l3_access: golden="
            f"{counts['l3.l3_access'] - 1.0!r} actual="
            f"{counts['l3.l3_access']!r}",
            f"ledgers.{w}/{c}.energy_counts.l3_remote.l3_access: "
            f"golden=None actual=1.0",
            f"ledgers.{w}/{c}.traffic_breakdown.ctrl: golden="
            f"{split['ctrl'] - 8.0!r} actual={split['ctrl']!r}",
            f"ledgers.{w}/{c}.traffic_breakdown.data: golden="
            f"{split['data'] + 8.0!r} actual={split['data']!r}",
        ]

    def test_update_cli_writes_verifiable_snapshot(self, tmp_path,
                                                   tiny_snapshot):
        path = tmp_path / "snap.json"
        write_snapshot(tiny_snapshot, str(path))
        assert main(["--path", str(path)]) == 0
        mutated = load_snapshot(str(path))
        w = sorted(mutated["cells"])[0]
        c = sorted(mutated["cells"][w])[0]
        mutated["cells"][w][c]["noc_flits"] += 1
        write_snapshot(mutated, str(path))
        assert main(["--path", str(path)]) == 1

    def test_missing_snapshot_is_distinct_error(self, tmp_path):
        assert main(["--path", str(tmp_path / "absent.json")]) == 2


class TestCrossProcessDeterminism:
    def test_serial_and_parallel_snapshots_byte_identical(self, monkeypatch):
        """A 4-worker pool must dump the same bytes as the serial run."""
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        serial = snapshot_text(matrix_snapshot(
            scale="tiny", workloads=SUB_WORKLOADS, configs=SUB_CONFIGS,
            jobs=1,
        ))
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = snapshot_text(matrix_snapshot(
            scale="tiny", workloads=SUB_WORKLOADS, configs=SUB_CONFIGS,
            jobs=None,  # resolved from REPRO_JOBS, like the CLI
        ))
        assert serial == parallel
