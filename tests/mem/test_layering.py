"""The caches' set-dict encoding stays inside ``repro.mem``.

A cache keeps each set as a dict whose order is the LRU order and whose
values are the dirty bits, and the batch walks pop from it with the
``_ABSENT`` marker. Only ``repro.mem`` reads that encoding, so it can
change in one package.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def test_set_dicts_stay_in_mem():
    """No module under ``src/repro/`` outside ``repro/mem/`` imports
    ``_ABSENT`` or reads a cache's ``_sets``."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "mem":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and any(
                    alias.name == "_ABSENT" for alias in node.names):
                offenders.append(f"{rel}:{node.lineno} imports _ABSENT")
            elif isinstance(node, ast.Attribute) and node.attr in (
                    "_ABSENT", "_sets"):
                offenders.append(f"{rel}:{node.lineno} reads {node.attr}")
    assert offenders == []
