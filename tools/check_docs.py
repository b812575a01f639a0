#!/usr/bin/env python3
"""Docs-consistency checker (CI gate; also run as a pytest).

These invariants keep the documentation layer honest, in both
directions (code is documented, and docs name only what exists):

1. Every module under ``src/repro/`` is named in ``docs/ARCHITECTURE.md``
   — a module file as its relative path (``sim/system.py``), a package's
   ``__init__.py`` as its directory prefix (``sim/``) — and every
   ``.py`` path ``docs/ARCHITECTURE.md`` names exists (relative to the
   repo root, ``src/`` or ``src/repro/``).
2. Every ``REPRO_*`` environment variable referenced anywhere under
   ``src/repro/`` is declared in :mod:`repro.envcfg` and documented in
   the README's environment-variable table (name, default and pinning
   tests all present); and README.md and ``docs/`` name no ``REPRO_*``
   variable that no Python file under ``src/``, ``benchmarks/`` or
   ``tools/`` reads.
3. Every builtin machine document and every machine-schema field
   (:func:`repro.machine.schema.schema_fields`) is documented in the
   README's machine-description section.
4. Every operator-visible surface of the sweep service is documented in
   ``docs/SERVICE.md``: each endpoint in
   :data:`repro.serve.protocol.ENDPOINTS` (as ``METHOD /path``), each
   job lifecycle state, each ``python -m repro.serve`` CLI flag, and
   each ``REPRO_SERVE_*`` environment variable — and the README links
   the guide.
5. Every setting changes something: each machine-schema field (by its
   leaf name) and each :class:`repro.sim.system.ConfigSpec` field is
   read as an attribute somewhere under ``src/repro/`` outside
   ``params.py`` and ``machine/`` (which declare, validate and copy
   every field). A read is an attribute load (``m.l3_clusters``) or a
   string naming the attribute (the energy sheet's event names reach
   ``getattr(table, event)`` as strings).

Exit status 0 when all hold; 1 with a per-violation listing otherwise.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ARCH = REPO / "docs" / "ARCHITECTURE.md"
README = REPO / "README.md"

# trailing [A-Z0-9]: docstrings refer to the variable family as
# ``REPRO_SERVE_*``, which is a glob, not a variable name
ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")
PY_PATH_RE = re.compile(r"[\w./-]+\.py\b")

#: trees whose Python files count as readers of a ``REPRO_*`` variable
READER_DIRS = ("src", "benchmarks", "tools")


def module_tokens() -> list[str]:
    """Documentation tokens for every module file under src/repro/."""
    tokens = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if path.name == "__init__.py":
            pkg = rel[: -len("__init__.py")]
            if pkg:  # the top-level package is the document's subject
                tokens.append(pkg)
        else:
            tokens.append(rel)
    return tokens


def check_architecture() -> list[str]:
    if not ARCH.exists():
        return [f"missing {ARCH.relative_to(REPO)}"]
    text = ARCH.read_text(encoding="utf-8")
    return [
        f"docs/ARCHITECTURE.md does not mention `{tok}`"
        for tok in module_tokens()
        if tok not in text
    ]


def missing_py_paths(text: str) -> list[str]:
    """``.py`` paths named in ``text`` that exist under no doc root."""
    roots = (REPO, REPO / "src", SRC)
    return [path for path in sorted(set(PY_PATH_RE.findall(text)))
            if not any((root / path).is_file() for root in roots)]


def check_architecture_paths() -> list[str]:
    return [
        f"docs/ARCHITECTURE.md names `{path}`, which does not exist"
        for path in missing_py_paths(ARCH.read_text(encoding="utf-8"))
    ]


def env_vars_in(paths) -> set[str]:
    found = set()
    for path in paths:
        found |= set(ENV_RE.findall(path.read_text(encoding="utf-8")))
    return found


def unread_env_vars(docs: dict[str, str], read: set[str]) -> list[str]:
    """``REPRO_*`` names each document in ``docs`` (name -> text) uses
    that are missing from ``read``."""
    return [
        f"{doc} names {name}, which no file under "
        f"{', '.join(READER_DIRS)} reads"
        for doc, text in sorted(docs.items())
        for name in sorted(set(ENV_RE.findall(text)) - read)
    ]


def check_documented_env_vars() -> list[str]:
    read = env_vars_in(path for top in READER_DIRS
                       for path in (REPO / top).rglob("*.py"))
    docs = [README, *sorted((REPO / "docs").rglob("*.md"))]
    return unread_env_vars(
        {d.relative_to(REPO).as_posix(): d.read_text(encoding="utf-8")
         for d in docs}, read)


def check_env_vars() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro import envcfg

    problems = []
    declared = {v.name for v in envcfg.ENV_VARS}
    for name in sorted(env_vars_in(SRC.rglob("*.py")) - declared):
        problems.append(f"{name} is read in src/ but not declared in "
                        f"repro/envcfg.py")

    readme = README.read_text(encoding="utf-8")
    for var in envcfg.ENV_VARS:
        if f"`{var.name}`" not in readme:
            problems.append(f"{var.name} missing from the README "
                            f"environment-variable table")
            continue
        for pin in (p.strip() for p in var.pinned_by.split(",")):
            if pin and pin not in readme:
                problems.append(f"{var.name}: pinning test {pin} missing "
                                f"from the README table")
            if pin and not (REPO / pin).exists():
                problems.append(f"{var.name}: pinning test {pin} does "
                                f"not exist")
    return problems


def check_machine_docs() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro.machine import builtin_documents
    from repro.machine.schema import schema_fields

    readme = README.read_text(encoding="utf-8")
    problems = []
    for name in sorted(builtin_documents()):
        if f"`{name}`" not in readme:
            problems.append(f"builtin machine document {name} missing "
                            f"from the README machine-description section")
    for field in schema_fields():
        if f"`{field}`" not in readme:
            problems.append(f"machine schema field {field} missing from "
                            f"the README schema reference")
    return problems


def check_service_docs() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro import envcfg
    from repro.serve.__main__ import build_parser
    from repro.serve.protocol import ENDPOINTS, JOB_STATES

    service = REPO / "docs" / "SERVICE.md"
    if not service.exists():
        return [f"missing {service.relative_to(REPO)}"]
    text = service.read_text(encoding="utf-8")
    problems = []
    for ep in ENDPOINTS:
        if f"{ep.method} {ep.path}" not in text:
            problems.append(f"serve endpoint `{ep.method} {ep.path}` "
                            f"missing from docs/SERVICE.md")
    for state in JOB_STATES:
        if f"`{state}`" not in text:
            problems.append(f"job lifecycle state `{state}` missing "
                            f"from docs/SERVICE.md")
    for action in build_parser()._actions:
        for opt in action.option_strings:
            if opt.startswith("--") and f"`{opt}`" not in text:
                problems.append(f"serve CLI flag `{opt}` missing from "
                                f"docs/SERVICE.md")
    for var in envcfg.ENV_VARS:
        if var.name.startswith("REPRO_SERVE_") \
                and f"`{var.name}`" not in text:
            problems.append(f"{var.name} missing from docs/SERVICE.md")
    if "docs/SERVICE.md" not in README.read_text(encoding="utf-8"):
        problems.append("README does not link docs/SERVICE.md")
    return problems


def attribute_reads(paths) -> set[str]:
    """Every attribute name ``paths`` read: each attribute load, and each
    string constant (an attribute read by name)."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                names.add(node.value)
    return names


def unread_settings(settings: dict[str, str], read: set[str]) -> list[str]:
    """Problems for the settings (label -> attribute name) whose
    attribute is missing from ``read``."""
    return [
        f"{label} changes nothing: no code under src/repro/ outside "
        f"params.py and machine/ reads `{attr}`"
        for label, attr in sorted(settings.items()) if attr not in read
    ]


def check_settings_read() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from dataclasses import fields

    from repro.machine.schema import schema_fields
    from repro.sim.system import ConfigSpec

    settings = {f"machine schema field {name}": name.rsplit(".", 1)[-1]
                for name in schema_fields()}
    settings.update({f"ConfigSpec field {f.name}": f.name
                     for f in fields(ConfigSpec)})
    readers = [path for path in SRC.rglob("*.py")
               if path != SRC / "params.py"
               and SRC / "machine" not in path.parents]
    return unread_settings(settings, attribute_reads(readers))


def main() -> int:
    problems = (check_architecture() + check_architecture_paths()
                + check_env_vars() + check_documented_env_vars()
                + check_machine_docs() + check_service_docs()
                + check_settings_read())
    for p in problems:
        print(f"check_docs: {p}", file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    sys.path.insert(0, str(REPO / "src"))
    from repro.machine.schema import schema_fields
    from repro.serve.protocol import ENDPOINTS
    print("check_docs: OK "
          f"({len(module_tokens())} modules, README env table, "
          f"{len(schema_fields())} machine schema fields and "
          f"{len(ENDPOINTS)} serve endpoints in sync; every setting "
          f"read)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
