"""Machine-description documents: validate, construct, round-trip.

The entry points:

* :func:`validate_document` — check a raw JSON object against the
  schema and the structural invariants, collecting **all** violations
  into one :class:`MachineDocError` instead of failing on the first.
* :func:`machine_from_document` — construct the described
  :class:`~repro.params.MachineParams` (validates first).
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

from ..errors import ConfigError
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


class MachineDocError(ConfigError):
    """A machine document failed validation.

    ``violations`` lists every independent problem found, so a document
    with a non-power-of-two set count *and* an undersized mesh reports
    both in one error.
    """

    def __init__(self, violations: List[str]):
        self.violations = list(violations)
        super().__init__(
            "invalid machine document: " + "; ".join(self.violations)
        )


def _coerce(path: str, default: object,
            value: object) -> Tuple[object, Optional[str]]:
    """Type-check ``value`` against the default's JSON type."""
    if isinstance(default, bool):
        if not isinstance(value, bool):
            return None, f"{path} expects a bool, got {value!r}"
        return value, None
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            return None, f"{path} expects an int, got {value!r}"
        return value, None
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None, f"{path} expects a number, got {value!r}"
        return float(value), None
    return None, f"{path}: unsupported field type {type(default).__name__}"


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
        slot = merged[key]
        if isinstance(slot, dict):
            if not isinstance(value, Mapping):
                violations.append(
                    f"{key} must be an object of {key}.* fields, "
                    f"got {value!r}"
                )
                continue
            for sub, sub_value in value.items():
                if sub not in slot:
                    violations.append(f"unknown key '{key}.{sub}'")
                    continue
                coerced, err = _coerce(f"{key}.{sub}", slot[sub], sub_value)
                if err:
                    violations.append(err)
                else:
                    slot[sub] = coerced
        else:
            coerced, err = _coerce(key, slot, value)
            if err:
                violations.append(err)
            else:
                merged[key] = coerced
    return merged, violations


def _is_pow2(n: object) -> bool:
    return isinstance(n, int) and n >= 1 and (n & (n - 1)) == 0


def _structural(m: dict) -> List[str]:
    """Every structural invariant, collected (not first-failure)."""
    v: List[str] = []

    # -- cache levels ---------------------------------------------------
    for level in ("l1", "l2", "l3"):
        c = m[level]
        for leaf in ("size_bytes", "ways", "latency_cycles", "mshrs",
                     "line_bytes"):
            if c[leaf] < 1:
                v.append(f"{level}.{leaf} must be >= 1: {c[leaf]}")
        if not _is_pow2(c["line_bytes"]) or c["line_bytes"] < 8:
            v.append(
                f"{level}.line_bytes must be a power of two >= 8: "
                f"{c['line_bytes']}"
            )
    line = m["l3"]["line_bytes"]
    if not (m["l1"]["line_bytes"] == m["l2"]["line_bytes"] == line):
        v.append(
            f"cache line size must be uniform across levels: "
            f"l1={m['l1']['line_bytes']} l2={m['l2']['line_bytes']} "
            f"l3={line}"
        )
    clusters = m["l3_clusters"]
    for level in ("l1", "l2"):
        c = m[level]
        if min(c["size_bytes"], c["ways"], c["line_bytes"]) < 1:
            continue
        sets, rem = divmod(c["size_bytes"], c["ways"] * c["line_bytes"])
        if rem:
            v.append(
                f"{level}.size_bytes {c['size_bytes']} not divisible by "
                f"ways*line ({c['ways']}*{c['line_bytes']})"
            )
        elif not _is_pow2(sets):
            v.append(f"{level} has a non-power-of-two set count: {sets}")

    # -- L3 organization ------------------------------------------------
    if clusters < 1:
        v.append(f"l3_clusters must be >= 1: {clusters}")
    if m["l3_banks_per_cluster"] < 1:
        v.append(
            f"l3_banks_per_cluster must be >= 1: "
            f"{m['l3_banks_per_cluster']}"
        )
    l3 = m["l3"]
    if clusters >= 1 and min(l3["size_bytes"], l3["ways"],
                             l3["line_bytes"]) >= 1:
        slice_bytes, rem = divmod(l3["size_bytes"], clusters)
        if rem:
            v.append(
                f"l3.size_bytes {l3['size_bytes']} not divisible by "
                f"l3_clusters {clusters}"
            )
        else:
            sets, rem = divmod(slice_bytes, l3["ways"] * l3["line_bytes"])
            if rem:
                v.append(
                    f"l3 slice size {slice_bytes} not divisible by "
                    f"ways*line ({l3['ways']}*{l3['line_bytes']})"
                )
            elif not _is_pow2(sets):
                v.append(
                    f"l3 slice has a non-power-of-two set count: {sets}"
                )
    if m["l3_bank_latency"] < 1:
        v.append(f"l3_bank_latency must be >= 1: {m['l3_bank_latency']}")

    # -- NoC ------------------------------------------------------------
    noc = m["noc"]
    if noc["mc_node"] == -1:  # NocParams' "east end of the top row"
        noc["mc_node"] = noc["mesh_cols"] - 1
    nodes = noc["mesh_cols"] * noc["mesh_rows"]
    if noc["mesh_cols"] < 1 or noc["mesh_rows"] < 1:
        v.append(
            f"mesh must be at least 1x1: "
            f"{noc['mesh_cols']}x{noc['mesh_rows']}"
        )
    else:
        for label in ("host_node", "mc_node"):
            if not 0 <= noc[label] < nodes:
                v.append(
                    f"noc.{label} {noc[label]} outside the "
                    f"{noc['mesh_cols']}x{noc['mesh_rows']} mesh "
                    f"({nodes} nodes)"
                )
        if nodes < clusters:
            v.append(
                f"mesh {noc['mesh_cols']}x{noc['mesh_rows']} "
                f"({nodes} nodes) too small for {clusters} L3 clusters"
            )
        if 0 <= noc["host_node"] < nodes and noc["host_node"] >= clusters:
            v.append(
                f"noc.host_node {noc['host_node']} is not co-located "
                f"with an L3 cluster (l3_clusters={clusters})"
            )
    if noc["hop_latency_cycles"] < 0:
        v.append(
            f"noc.hop_latency_cycles must be >= 0: "
            f"{noc['hop_latency_cycles']}"
        )
    if noc["flit_bytes"] < 1:
        v.append(f"noc.flit_bytes must be >= 1: {noc['flit_bytes']}")

    # -- DRAM -----------------------------------------------------------
    if m["dram"]["size_bytes"] < 1:
        v.append(f"dram.size_bytes must be >= 1: {m['dram']['size_bytes']}")
    if m["dram"]["latency_cycles"] < 0:
        v.append(
            f"dram.latency_cycles must be >= 0: "
            f"{m['dram']['latency_cycles']}"
        )
    if m["dram"]["bandwidth_bytes_per_cycle"] <= 0:
        v.append(
            f"dram.bandwidth_bytes_per_cycle must be positive: "
            f"{m['dram']['bandwidth_bytes_per_cycle']}"
        )

    # -- compute --------------------------------------------------------
    for group, freq in (("core", m["core"]["freq_ghz"]),
                        ("inorder", m["inorder"]["freq_ghz"]),
                        ("cgra", m["cgra"]["freq_ghz"])):
        if freq <= 0:
            v.append(f"{group}.freq_ghz must be positive: {freq}")
    for group, leaf in (("core", "issue_width"),
                        ("core", "mem_level_parallelism"),
                        ("inorder", "issue_width"),
                        ("inorder", "mem_level_parallelism"),
                        ("cgra", "rows"), ("cgra", "cols")):
        if m[group][leaf] < 1:
            v.append(f"{group}.{leaf} must be >= 1: {m[group][leaf]}")
    for leaf in ("int_alus", "float_alus", "complex_alus"):
        if m["cgra"][leaf] < 0:
            v.append(f"cgra.{leaf} must be >= 0: {m['cgra'][leaf]}")

    # -- access unit + Mono-CA private cache ----------------------------
    au = m["access_unit"]
    for leaf in ("buffer_bytes", "acp_ways", "acp_bytes", "max_buffers"):
        if au[leaf] < 1:
            v.append(f"access_unit.{leaf} must be >= 1: {au[leaf]}")
    if line >= 8 and au["acp_ways"] >= 1 and au["acp_bytes"] >= 1:
        sets, rem = divmod(au["acp_bytes"], au["acp_ways"] * line)
        if rem:
            v.append(
                f"access_unit.acp_bytes {au['acp_bytes']} not divisible "
                f"by acp_ways*line ({au['acp_ways']}*{line})"
            )
        elif not _is_pow2(sets):
            v.append(f"ACP has a non-power-of-two set count: {sets}")
    if m["mono_private_bytes"] < 1:
        v.append(
            f"mono_private_bytes must be >= 1: {m['mono_private_bytes']}"
        )
    elif line >= 8:
        sets, rem = divmod(m["mono_private_bytes"], 4 * line)
        if rem:
            v.append(
                f"mono_private_bytes {m['mono_private_bytes']} not "
                f"divisible by ways*line (4*{line}; the Mono-CA private "
                f"cache is 4-way)"
            )
        elif not _is_pow2(sets):
            v.append(
                f"Mono-CA private cache has a non-power-of-two set "
                f"count: {sets}"
            )

    # -- charge sheets --------------------------------------------------
    for sheet in ("energy", "area"):
        for leaf, value in m[sheet].items():
            if value < 0:
                v.append(f"{sheet}.{leaf} must be >= 0: {value}")
    return v


def validate_document(doc: Mapping) -> dict:
    """Validate ``doc``; return the merged full field dict.

    Raises :class:`MachineDocError` naming **every** violation: unknown
    keys, type mismatches, non-power-of-two set counts, a mesh too
    small for the cluster count, zero bandwidth, ...
    """
    merged, violations = _merge(doc)
    if merged is not None:
        violations.extend(_structural(merged))
    if violations:
        raise MachineDocError(violations)
    assert merged is not None
    return merged


def machine_from_document(doc: Mapping) -> MachineParams:
    """Construct the :class:`MachineParams` a document describes."""
    merged = validate_document(doc)
    try:
        groups = {
            key: cls(**merged[key]) for key, cls in _GROUP_TYPES.items()
        }
        scalars = {
            key: value for key, value in merged.items()
            if key not in _GROUP_TYPES
        }
        return MachineParams(**groups, **scalars)
    except (ValueError, ConfigError) as exc:  # pragma: no cover - belt
        raise MachineDocError([str(exc)]) from exc


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
