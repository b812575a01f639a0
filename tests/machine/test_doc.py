"""Machine-description documents: validation, builtins, round-trips."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.machine import (
    BUILTIN_DIR,
    MachineDocError,
    builtin_documents,
    builtin_machine,
    document_digest,
    document_from_machine,
    dumps_document,
    load_document,
    machine_from_document,
    validate_document,
)
from repro.params import (
    base_machine,
    default_machine,
    experiment_machine,
    machine_digest,
    mono_da_cgra_machine,
)
from repro.testing.genmachine import generate_machine_doc

BUILTIN_NAMES = (
    "table3", "experiment", "mono_da_cgra", "mono_ca",
    "experiment_mono_da_cgra", "experiment_mono_ca",
)


def _factory(name):
    return {
        "table3": default_machine,
        "experiment": experiment_machine,
        "mono_da_cgra": mono_da_cgra_machine,
        "mono_ca": lambda: mono_da_cgra_machine().with_accel_freq(2.0),
        "experiment_mono_da_cgra":
            lambda: mono_da_cgra_machine(experiment_machine()),
        "experiment_mono_ca":
            lambda: mono_da_cgra_machine(
                experiment_machine()).with_accel_freq(2.0),
    }[name]()


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------
def test_builtin_set_is_exactly_the_six():
    assert sorted(builtin_documents()) == sorted(BUILTIN_NAMES)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_document_matches_factory(name):
    """Every shipped document constructs the factory machine exactly."""
    machine = builtin_machine(name)
    assert machine == _factory(name)
    assert machine_digest(machine) == machine_digest(_factory(name))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_file_is_canonical(name):
    path = os.path.join(BUILTIN_DIR, f"{name}.json")
    with open(path) as f:
        text = f.read()
    doc = load_document(path)
    assert dumps_document(doc) == text


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_base_machine_resolves_builtin(name):
    assert base_machine(name) == builtin_machine(name)


def test_base_machine_resolves_document_path():
    path = os.path.join(BUILTIN_DIR, "experiment.json")
    assert base_machine(path) == experiment_machine()


def test_builtin_machine_unknown_name():
    with pytest.raises(ConfigError):
        builtin_machine("no-such-machine")


# ---------------------------------------------------------------------------
# validation: one named error listing every violation
# ---------------------------------------------------------------------------
def test_invalid_document_reports_all_violations():
    doc = {
        "schema_version": 1,
        "name": "bad",
        "l1": {"size_bytes": 3 * 4 * 64, "ways": 4},   # 3 sets: not pow2
        "l3_clusters": 4,
        "noc": {"mesh_cols": 1, "mesh_rows": 1},        # < 4 clusters
        "dram": {"bandwidth_bytes_per_cycle": 0},       # zero bandwidth
        "bogus": 1,                                     # schema
    }
    with pytest.raises(MachineDocError) as err:
        validate_document(doc)
    text = str(err.value)
    violations = err.value.violations
    assert len(violations) >= 4
    assert "unknown key 'bogus'" in violations
    assert any("non-power-of-two set count" in v for v in violations)
    assert any("too small for 4 L3 clusters" in v for v in violations)
    assert any("bandwidth_bytes_per_cycle must be positive" in v
               for v in violations)
    for v in violations:
        assert v in text


def test_machine_doc_error_is_a_config_error():
    with pytest.raises(ConfigError):
        validate_document({"schema_version": 1, "bogus_key": 1})


def test_unknown_keys_rejected_by_name():
    with pytest.raises(MachineDocError) as err:
        validate_document({
            "schema_version": 1,
            "l1": {"nonexistent": 1},
            "spurious": True,
        })
    joined = " ".join(err.value.violations)
    assert "'l1.nonexistent'" in joined
    assert "'spurious'" in joined


#: fields earlier schema-1 documents carried that no simulator code read
UNMODELLED = [("core", "rob_entries", 224), ("l1", "writeback", True),
              ("l2", "writeback", True), ("l3", "writeback", True),
              ("noc", "credits_per_link", 8),
              ("inorder", "sw_prefetch", False),
              ("access_unit", "fill_burst_elems", 8)]


@pytest.mark.parametrize("group, leaf, value", UNMODELLED)
def test_unmodelled_field_rejected_by_name(group, leaf, value):
    """A document still setting a field the simulator never modelled
    fails, naming the field, instead of changing nothing."""
    with pytest.raises(MachineDocError) as err:
        validate_document({"schema_version": 1, group: {leaf: value}})
    assert err.value.violations == [f"unknown key '{group}.{leaf}'"]


def test_type_mismatch_rejected():
    with pytest.raises(MachineDocError):
        validate_document({"schema_version": 1,
                           "l3_clusters": True})  # bool is not an int


def test_wrong_schema_version_rejected():
    with pytest.raises(MachineDocError):
        validate_document({"schema_version": 99})


def test_mc_node_sentinel_resolves_to_east_end():
    merged = validate_document({
        "schema_version": 1,
        "noc": {"mesh_cols": 2, "mesh_rows": 1, "mc_node": -1},
        "l3_clusters": 2,
        "l3": {"size_bytes": 2 * 8192},
    })
    assert merged["noc"]["mc_node"] == 1
    machine = machine_from_document({
        "schema_version": 1,
        "noc": {"mesh_cols": 2, "mesh_rows": 1},
        "l3_clusters": 2,
        "l3": {"size_bytes": 2 * 8192},
    })
    assert machine.noc.mc_node == 1


# ---------------------------------------------------------------------------
# round-trip fixpoint
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_roundtrip_fixpoint(name):
    doc = builtin_documents()[name]
    machine = machine_from_document(doc)
    full = document_from_machine(machine, name=name)
    assert full == doc
    assert machine_from_document(full) == machine


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_generated_roundtrip_fixpoint(seed):
    """document -> MachineParams -> document is a fixpoint (sparse docs
    expand to the canonical full form once, then stay put)."""
    doc = generate_machine_doc(seed)
    machine = machine_from_document(doc)
    full = document_from_machine(machine, name=doc["name"])
    assert machine_from_document(full) == machine
    assert document_from_machine(
        machine_from_document(full), name=doc["name"]) == full
    assert document_digest(doc) == machine_digest(machine)


# ---------------------------------------------------------------------------
# digest stability
# ---------------------------------------------------------------------------
def _reversed_keys(node):
    if isinstance(node, dict):
        return {k: _reversed_keys(node[k]) for k in reversed(list(node))}
    return node


def test_digest_stable_across_field_order():
    doc = builtin_documents()["experiment"]
    shuffled = json.loads(json.dumps(_reversed_keys(doc)))
    assert document_digest(shuffled) == document_digest(doc)
    assert document_digest(doc) == machine_digest(experiment_machine())


def test_digest_stable_across_process_boundary():
    """The digest is a pure function of the document, not of process
    state (dict iteration order, hash randomization, import order)."""
    code = (
        "from repro.machine import builtin_documents, document_digest;"
        "print(document_digest(builtin_documents()['experiment']))"
    )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "random"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == machine_digest(experiment_machine())


# ---------------------------------------------------------------------------
# document-driven topology actually differs from the default
# ---------------------------------------------------------------------------
def test_document_can_rewire_topology():
    machine = machine_from_document({
        "schema_version": 1,
        "l3_clusters": 16,
        "l3": {"size_bytes": 16 * 8192},
        "noc": {"mesh_cols": 4, "mesh_rows": 4,
                "host_node": 5, "mc_node": 10},
    })
    assert machine.l3_clusters == 16
    assert machine.noc.num_nodes == 16
    assert machine.noc.host_node == 5
    assert machine.noc.mc_node == 10
    assert machine.l3_cluster_bytes == 8192
    assert dataclasses.asdict(machine) != dataclasses.asdict(
        default_machine())
