"""Documents and sweep overrides obey one set of structural rules.

Every schema leaf at 0, -1 and NaN (JSON documents may carry NaN), a
size with a non-power-of-two set count for each cache the hierarchy
builds, and more CGRA ALUs than the grid has PEs (the last two always
refused), is applied both ways: as a ``derive_machine`` override of the
experiment machine and as the same field in the experiment machine's
document. Either both are refused,
each with the one :class:`MachineConfigError` and a violation naming
the field, or both construct the same machine.
"""

import copy
import re

import pytest

from repro.dse import SweepSpec
from repro.errors import MachineConfigError
from repro.machine import (
    MachineDocError,
    builtin_documents,
    machine_from_document,
    schema_fields,
)
from repro.params import (
    MONO_PRIVATE_WAYS,
    derive_machine,
    experiment_machine,
    mono_da_cgra_machine,
)

_M = experiment_machine()
_LINE = _M.l3.line_bytes

#: per cache, a size that divides into whole sets, but 6 or 3 of them
NON_POW2_SIZES = {
    "l1.size_bytes": 6 * _M.l1.ways * _LINE,
    "l2.size_bytes": 6 * _M.l2.ways * _LINE,
    "l3.size_bytes": 6 * _M.l3.ways * _LINE * _M.l3_clusters,
    "access_unit.acp_bytes": 3 * _M.access_unit.acp_ways * _LINE,
    "mono_private_bytes": 3 * MONO_PRIVATE_WAYS * _LINE,
}

#: inputs every machine must refuse: the sizes above, and more CGRA
#: ALUs than the grid has PEs (30 + 4 + 4 on the 5x5 grid's 25)
REFUSED = sorted(NON_POW2_SIZES.items()) + [("cgra.int_alus", 30)]

CASES = [(leaf, value) for leaf in sorted(schema_fields())
         for value in (0, -1, float("nan"))] + REFUSED


def _document(leaf, value):
    doc = copy.deepcopy(builtin_documents()["experiment"])
    group, _, sub = leaf.rpartition(".")
    (doc[group] if group else doc)[sub] = value
    return doc


def _build(make):
    """``(machine, None)`` or ``(None, error)``."""
    try:
        return make(), None
    except MachineConfigError as exc:
        return None, exc


def _names(leaf, violation):
    return re.search(rf"(?<![\w.]){re.escape(leaf)}(?!\w)", violation)


def test_doc_error_is_the_machine_error():
    assert MachineDocError is MachineConfigError


@pytest.mark.parametrize("leaf, value", CASES,
                         ids=[f"{leaf}={value}" for leaf, value in CASES])
def test_override_and_document_agree(leaf, value):
    derived, override_err = _build(
        lambda: derive_machine(experiment_machine(), {leaf: value}))
    described, document_err = _build(
        lambda: machine_from_document(_document(leaf, value)))
    assert (override_err is None) == (document_err is None), (
        override_err, document_err)
    if override_err is None:
        assert (leaf, value) not in REFUSED
        assert derived == described
        return
    for err in (override_err, document_err):
        assert type(err) is MachineConfigError
        assert any(_names(leaf, v) for v in err.violations), err.violations


@pytest.mark.parametrize("leaf", sorted(NON_POW2_SIZES))
def test_non_power_of_two_sets_refused(leaf):
    _, err = _build(lambda: derive_machine(
        experiment_machine(), {leaf: NON_POW2_SIZES[leaf]}))
    assert err is not None
    assert any(_names(leaf, v) and "non-power-of-two set count" in v
               for v in err.violations), err.violations


def test_every_violation_listed_at_once():
    """Overrides, like a document, build one machine and report every
    rule it breaks, whatever order the keys sort in."""
    overrides = dict(NON_POW2_SIZES, **{"core.issue_width": 0})
    _, err = _build(lambda: derive_machine(experiment_machine(), overrides))
    assert err is not None
    for leaf in overrides:
        assert any(_names(leaf, v) for v in err.violations), err.violations


def test_overrides_validate_the_result_not_each_step():
    """16 clusters sort before the mesh that holds them; the derived
    machine is checked once, as the same document is."""
    overrides = {"l3_clusters": 16, "noc.mesh_rows": 4}
    doc = builtin_documents()["experiment"]
    doc = dict(doc, l3_clusters=16, noc=dict(doc["noc"], mesh_rows=4))
    assert derive_machine(experiment_machine(), overrides) \
        == machine_from_document(doc)


def test_topology_alias_obeys_the_rules():
    _, err = _build(lambda: derive_machine(
        mono_da_cgra_machine(), {"topology": "0x2"}))
    assert err is not None
    for leaf in ("noc.mesh_cols", "l3_clusters"):
        assert any(_names(leaf, v) for v in err.violations), err.violations


@pytest.mark.parametrize("leaf", ("cgra.int_alus", "cgra.float_alus",
                                  "cgra.complex_alus"))
def test_cgra_without_an_alu_class_refused(leaf):
    """Every op class runs on its own ALUs, so a CGRA with none of one
    class is refused, naming the field, whether the count comes from
    ``derive_machine``, a document or a sweep axis."""
    errors = [
        _build(lambda: derive_machine(experiment_machine(), {leaf: 0}))[1],
        _build(lambda: machine_from_document(_document(leaf, 0)))[1],
        _build(lambda: SweepSpec.from_dict({
            "name": "no-alu", "workloads": ["fdt"], "configs": ["dist_da_f"],
            "scale": "tiny", "machine_axes": {leaf: [4, 0]}}))[1],
    ]
    for err in errors:
        assert type(err) is MachineConfigError, err
        assert any(_names(leaf, v) and "must be >= 1" in v
                   for v in err.violations), err.violations
