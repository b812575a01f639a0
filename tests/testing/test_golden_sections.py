"""Table V, Table VI and Figures 12 and 14 at tiny scale vs. the
committed sections snapshot."""

import json

import pytest

from repro.testing.golden import (
    SECTIONS_GOLDEN_PATH,
    diff_sections,
    load_snapshot,
    sections_snapshot,
    snapshot_text,
)


@pytest.fixture(scope="module")
def sections():
    return sections_snapshot()


def test_sections_match_committed_snapshot(sections):
    lines = diff_sections(load_snapshot(SECTIONS_GOLDEN_PATH), sections)
    assert not lines, (
        "report sections diverged from tests/golden/ — if the model "
        "change is intended, refresh with `python -m repro.testing.golden "
        "--update`:\n" + "\n".join(lines)
    )


def test_snapshot_file_is_canonical(sections):
    with open(SECTIONS_GOLDEN_PATH) as f:
        assert f.read() == snapshot_text(sections)


def test_diff_names_the_changed_field(sections):
    mutated = json.loads(snapshot_text(sections))
    row = mutated["table6"]["rows"]["fdt"]
    row["max_insts"] += 1
    assert diff_sections(sections, mutated) == [
        f"sections.table6.rows.fdt.max_insts: golden="
        f"{row['max_insts'] - 1!r} actual={row['max_insts']!r}"
    ]
