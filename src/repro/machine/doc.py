"""Machine-description documents: validate, construct, round-trip.

The entry points:

* :func:`machine_from_document` — construct the described
  :class:`~repro.params.MachineParams`: the schema (unknown keys,
  types) is checked here, the structural rules by the construction
  itself (:func:`repro.params.machine_violations`, the rules every
  machine obeys), and **all** violations of both land in one
  :class:`MachineDocError` instead of failing on the first.
* :func:`validate_document` — the same check, returning the described
  machine's full field dict.
* :func:`document_from_machine` — the inverse: a full canonical
  document; ``document_from_machine(machine_from_document(d))`` is a
  fixpoint for canonical documents.
* :func:`document_digest` — the digest of the *described machine*
  (invariant under field order, sparseness, and process boundary).
* :func:`builtin_documents` / :func:`builtin_machine` — the committed
  reference documents under ``repro/machine/builtin/`` that back
  :data:`repro.params.BASE_MACHINES`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError, MachineConfigError
from ..params import (
    AccessUnitParams,
    AreaTable,
    CacheParams,
    CgraParams,
    CoreParams,
    DramParams,
    EnergyTable,
    InOrderParams,
    MachineParams,
    NocParams,
    coerce_leaf,
    default_machine,
    machine_digest,
)
from .schema import DOC_ONLY_KEYS, SCHEMA_VERSION

#: directory holding the committed builtin machine documents
BUILTIN_DIR = os.path.join(os.path.dirname(__file__), "builtin")

_GROUP_TYPES = {
    "core": CoreParams,
    "l1": CacheParams,
    "l2": CacheParams,
    "l3": CacheParams,
    "noc": NocParams,
    "dram": DramParams,
    "inorder": InOrderParams,
    "cgra": CgraParams,
    "access_unit": AccessUnitParams,
    "energy": EnergyTable,
    "area": AreaTable,
}


#: the one error every invalid machine raises, documents included
MachineDocError = MachineConfigError


def _merge(doc: Mapping) -> Tuple[Optional[dict], List[str]]:
    """Overlay ``doc`` onto the Table III defaults; schema violations
    (unknown keys, type mismatches) are collected, not raised."""
    violations: List[str] = []
    if not isinstance(doc, Mapping):
        return None, [
            f"document must be a JSON object, got {type(doc).__name__}"
        ]
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        violations.append(
            f"unsupported schema_version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        violations.append(f"name must be a string, got {name!r}")
    merged = {
        key: (dict(value) if isinstance(value, dict) else value)
        for key, value in asdict(default_machine()).items()
    }
    # the default machine carries mc_node already *resolved* (node 3 on
    # the 4x2 mesh); a sparse document that changes the mesh without
    # pinning mc_node must inherit the "east end of the top row"
    # sentinel, not a node index from a mesh it doesn't have
    merged["noc"]["mc_node"] = -1
    for key, value in doc.items():
        if key in DOC_ONLY_KEYS:
            continue
        if key not in merged:
            violations.append(f"unknown key {key!r}")
            continue
        if isinstance(merged[key], dict):
            if not isinstance(value, Mapping):
                violations.append(
                    f"{key} must be an object of {key}.* fields, "
                    f"got {value!r}"
                )
                continue
            leaves = [(merged[key], sub, f"{key}.{sub}", sub_value)
                      for sub, sub_value in value.items()]
        else:
            leaves = [(merged, key, key, value)]
        for slot, leaf, path, leaf_value in leaves:
            if leaf not in slot:
                violations.append(f"unknown key {path!r}")
                continue
            try:
                slot[leaf] = coerce_leaf(path, slot[leaf], leaf_value)
            except MachineConfigError as exc:
                violations.extend(exc.violations)
    return merged, violations


def machine_from_document(doc: Mapping) -> MachineParams:
    """Construct the :class:`MachineParams` a document describes.

    Raises :class:`MachineDocError` naming **every** violation: unknown
    keys and type mismatches from the schema, together with every
    structural rule (:func:`repro.params.machine_violations`) the
    described machine breaks.
    """
    merged, violations = _merge(doc)
    machine = None
    if merged is not None:
        try:
            machine = MachineParams(**{
                key: _GROUP_TYPES[key](**value) if key in _GROUP_TYPES
                else value
                for key, value in merged.items()
            })
        except MachineConfigError as exc:
            violations.extend(exc.violations)
    if violations:
        raise MachineDocError(violations)
    return machine


def validate_document(doc: Mapping) -> dict:
    """Validate ``doc``; return the full field dict of the machine it
    describes. Raises :class:`MachineDocError` like
    :func:`machine_from_document`."""
    return asdict(machine_from_document(doc))


def document_from_machine(machine: MachineParams,
                          name: Optional[str] = None) -> dict:
    """The full canonical document describing ``machine``."""
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if name is not None:
        doc["name"] = name
    doc.update(asdict(machine))
    return doc


def document_digest(doc: Mapping) -> str:
    """Digest of the machine a document *describes*.

    Equal to ``machine_digest(machine_from_document(doc))``: invariant
    under JSON field order, sparse-vs-full spelling, the document-only
    keys, and process boundaries.
    """
    return machine_digest(machine_from_document(doc))


def dumps_document(doc: Mapping) -> str:
    """Canonical serialization (stable key order, trailing newline)."""
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def load_document(path: str) -> dict:
    """Read a machine document from a JSON file (no validation yet)."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise MachineDocError(
                [f"{path} is not valid JSON: {exc}"]
            ) from exc


_builtin_docs: Optional[Dict[str, dict]] = None
_builtin_machines: Dict[str, MachineParams] = {}


def builtin_documents() -> Dict[str, dict]:
    """All committed builtin documents, keyed by their ``name``."""
    global _builtin_docs
    if _builtin_docs is None:
        docs: Dict[str, dict] = {}
        for entry in sorted(os.listdir(BUILTIN_DIR)):
            if not entry.endswith(".json"):
                continue
            doc = load_document(os.path.join(BUILTIN_DIR, entry))
            stem = entry[: -len(".json")]
            name = doc.get("name", stem)
            if name != stem:
                raise MachineDocError(
                    [f"builtin {entry} declares name {name!r}"]
                )
            docs[name] = doc
        _builtin_docs = docs
    return _builtin_docs


def builtin_machine(name: str) -> MachineParams:
    """Construct (and cache) one builtin machine by document name."""
    machine = _builtin_machines.get(name)
    if machine is None:
        docs = builtin_documents()
        if name not in docs:
            raise ConfigError(
                f"unknown builtin machine document {name!r}; "
                f"known: {sorted(docs)}"
            )
        machine = machine_from_document(docs[name])
        _builtin_machines[name] = machine
    return machine
