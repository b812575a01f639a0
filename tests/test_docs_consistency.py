"""The docs-consistency gate, as a pytest (CI also runs the script)."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


def test_docs_in_sync_with_tree():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True,
    )
    assert proc.returncode == 0, (
        f"tools/check_docs.py failed:\n{proc.stderr}"
    )


def test_architecture_doc_exists_and_is_linked():
    arch = REPO / "docs" / "ARCHITECTURE.md"
    assert arch.exists()
    assert "docs/ARCHITECTURE.md" in (REPO / "README.md").read_text()


def _checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_may_not_name_unread_env_vars():
    """A README/docs row for a variable nothing reads is flagged."""
    check = _checker()
    problems = check.unread_env_vars(
        {"README.md": "| `REPRO_JOBS` | ... |\n| `REPRO_GONE` | ... |",
         "docs/ARCHITECTURE.md": "set `REPRO_JOBS=2`"},
        read={"REPRO_JOBS"},
    )
    assert problems == [
        "README.md names REPRO_GONE, which no file under src, "
        "benchmarks, tools reads",
    ]
    assert check.check_documented_env_vars() == []


def test_architecture_may_not_name_missing_modules():
    """A row for a deleted module is flagged; every root resolves."""
    check = _checker()
    text = ("`sim/system.py`, `repro/envcfg.py`, `tools/check_docs.py`, "
            "`gone.py` and `mem/also_gone.py`")
    assert check.missing_py_paths(text) == ["gone.py", "mem/also_gone.py"]
    assert check.check_architecture_paths() == []


def test_settings_nothing_reads_are_flagged(tmp_path):
    """A machine-schema or ConfigSpec field that no code reads is
    flagged; an attribute load and a string naming the attribute both
    count as reads, an attribute store does not."""
    check = _checker()
    source = tmp_path / "reader.py"
    source.write_text("t = m.core.freq_ghz\n"
                      "getattr(table, 'cgra_op')\n"
                      "m.warp_factor = 3\n")
    read = check.attribute_reads([source])
    assert {"freq_ghz", "cgra_op"} <= read and "warp_factor" not in read
    problems = check.unread_settings(
        {"machine schema field core.freq_ghz": "freq_ghz",
         "machine schema field energy.cgra_op": "cgra_op",
         "machine schema field core.warp_factor": "warp_factor"},
        read)
    assert problems == [
        "machine schema field core.warp_factor changes nothing: no code "
        "under src/repro/ outside params.py and machine/ reads "
        "`warp_factor`",
    ]
    assert check.check_settings_read() == []
