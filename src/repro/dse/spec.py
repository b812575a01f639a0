"""Sweep specifications: declarative descriptions of a design space.

A spec is a plain dict (or JSON file) with the shape::

    {
      "name": "clocking",
      "scale": "small",
      "base": "experiment",              # repro.params.BASE_MACHINES name
      "workloads": ["fdt", "sei"],
      "configs": ["dist_da_io"],
      "machine_axes": {                  # dotted MachineParams paths or
        "accel_freq_ghz": [1.0, 2.0, 3.0]    # OVERRIDE_ALIASES keys
      },
      "workload_axes": {                 # Workload.build(**kwargs) axes
        "n": [48, 88]
      }
    }

Expansion is the full cartesian product
``workloads x workload_axes x machine_axes x configs``, emitted in that
deterministic nesting order so consecutive points share a functional
trace (same workload + dataset). Each point carries a content hash over
everything that determines its result — workload, dataset kwargs,
configuration, scale, and a digest of every derived machine parameter —
plus a store schema version, so a result store row is invalidated
exactly when something that could change the numbers does.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from ..errors import ConfigError
from ..params import (
    MachineParams,
    base_machine,
    derive_machine,
    machine_digest,
)
from ..sim.tracecache import functional_key

#: bump when row/metric semantics change: stored rows stop matching
STORE_VERSION = 1

#: directory of sweep specs shipped with the package
SHIPPED_SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")

_SPEC_KEYS = {
    "name", "scale", "base", "workloads", "configs",
    "machine_axes", "workload_axes", "prune",
}

_SCALES = ("tiny", "small", "large")


def _axis_items(axes: Mapping[str, Sequence],
                name: str) -> List[Tuple[str, Tuple]]:
    """Sorted, tuple-ified axes of the spec field ``name``. Each axis
    takes a list of values (a tuple once parsed): a scalar, a string or
    an empty list is refused, naming the axis."""
    if not isinstance(axes, Mapping):
        raise ConfigError(f"sweep {name} must be an object of axis -> "
                          f"list of values, got {type(axes).__name__}")
    items = []
    for key in sorted(axes):
        values = axes[key]
        if not isinstance(values, (list, tuple)):
            raise ConfigError(
                f"sweep axis {key!r} must be a list of values, got "
                f"{type(values).__name__} {values!r}")
        if not values:
            raise ConfigError(f"sweep axis {key!r} has no values")
        items.append((key, tuple(values)))
    return items


def _check_dataset_keys(workload: str, keys) -> None:
    """Refuse a dataset keyword that ``workload``'s ``build`` does not
    take (``scale`` is set by the spec or point, never as a keyword)."""
    from ..workloads import ALL_WORKLOADS

    params = inspect.signature(ALL_WORKLOADS[workload].build).parameters
    known = sorted(k for k in params if k != "scale")
    for key in sorted(keys):
        if key not in known:
            raise ConfigError(
                f"unknown dataset keyword {key!r} for workload "
                f"{workload!r}; known: {known}")


@dataclass(frozen=True)
class SweepPoint:
    """One fully-specified run of the sweep matrix."""

    workload: str
    config: str
    scale: str
    #: sorted (dotted-path-or-alias, value) machine overrides
    machine_overrides: Tuple[Tuple[str, object], ...] = ()
    #: sorted (kwarg, value) workload dataset parameters
    workload_kwargs: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "SweepPoint":
        """Build and validate one point from its wire/storage dict (the
        inverse of :meth:`as_dict`; the serve layer's single-cell query
        body). Unknown keys, unknown workloads/configs/scales fail with
        :class:`~repro.errors.ConfigError`."""
        from ..sim.system import CONFIGS
        from ..workloads import ALL_WORKLOADS

        known = {"workload", "config", "scale", "machine_overrides",
                 "workload_kwargs"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(
                f"unknown sweep point keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        for required in ("workload", "config"):
            if required not in raw:
                raise ConfigError(f"sweep point lacks {required!r}")
        workload = str(raw["workload"])
        config = str(raw["config"])
        scale = str(raw.get("scale", "small"))
        if workload not in ALL_WORKLOADS:
            raise ConfigError(
                f"unknown workload {workload!r}; "
                f"known: {sorted(ALL_WORKLOADS)}"
            )
        if config not in CONFIGS:
            raise ConfigError(
                f"unknown config {config!r}; known: {sorted(CONFIGS)}"
            )
        if scale not in _SCALES:
            raise ConfigError(f"unknown scale {scale!r}")
        overrides = raw.get("machine_overrides") or {}
        kwargs = raw.get("workload_kwargs") or {}
        for name, value in (("machine_overrides", overrides),
                            ("workload_kwargs", kwargs)):
            if not isinstance(value, Mapping):
                raise ConfigError(f"sweep point {name} must be a mapping, "
                                  f"got {type(value).__name__}")
        _check_dataset_keys(workload, kwargs)
        return cls(
            workload=workload, config=config, scale=scale,
            machine_overrides=tuple(sorted(overrides.items())),
            workload_kwargs=tuple(sorted(kwargs.items())),
        )

    def machine(self, base: MachineParams) -> MachineParams:
        return derive_machine(base, dict(self.machine_overrides))

    def trace_key(self) -> Tuple[str, str]:
        """Functional cache key: dataset identity, no machine params."""
        return functional_key(self.workload, self.scale,
                              dict(self.workload_kwargs))

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "config": self.config,
            "scale": self.scale,
            "machine_overrides": {k: v for k, v in self.machine_overrides},
            "workload_kwargs": {k: v for k, v in self.workload_kwargs},
        }

    def plan(self, base: MachineParams) -> "PlannedPoint":
        """Derive the point's machine from ``base`` and digest it, once:
        the content hash, the simulation and the stored row all take
        them from the returned :class:`PlannedPoint`."""
        machine = self.machine(base)
        digest = machine_digest(machine)
        blob = json.dumps({
            "point": self.as_dict(),
            "machine": digest,
            "store_version": STORE_VERSION,
        }, sort_keys=True)
        return PlannedPoint(hashlib.sha256(blob.encode()).hexdigest()[:24],
                            self, machine, digest)

    def content_hash(self, base: MachineParams) -> str:
        """Content hash of (spec point, code-relevant params).

        Machine axes enter through the digest of the fully *derived*
        machine, so two spec spellings of the same machine share a hash
        and a change to the base machine invalidates every row.
        """
        return self.plan(base).hash


class PlannedPoint(NamedTuple):
    """A sweep point bound to its base machine: what a worker needs to
    simulate it and store its row."""

    #: :meth:`SweepPoint.content_hash`, the point's store key
    hash: str
    point: SweepPoint
    #: the derived machine the point runs on
    machine: MachineParams
    #: :func:`~repro.params.machine_digest` of ``machine``
    digest: str


@dataclass
class SweepSpec:
    """A validated, expandable sweep description."""

    name: str
    workloads: Tuple[str, ...]
    configs: Tuple[str, ...]
    scale: str = "small"
    base: str = "experiment"
    machine_axes: Dict[str, Tuple] = field(default_factory=dict)
    workload_axes: Dict[str, Tuple] = field(default_factory=dict)
    #: when true, the scheduler may statically skip design points whose
    #: AN-C cost bounds are dominated by already-stored results (see
    #: repro.dse.prune). Skipped points become explicit "pruned" rows —
    #: nothing is dropped silently. Off by default.
    prune: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "SweepSpec":
        unknown = set(raw) - _SPEC_KEYS
        if unknown:
            raise ConfigError(
                f"unknown sweep spec keys {sorted(unknown)}; "
                f"known: {sorted(_SPEC_KEYS)}"
            )
        for required in ("name", "workloads", "configs"):
            if required not in raw:
                raise ConfigError(f"sweep spec lacks {required!r}")
        spec = cls(
            name=str(raw["name"]),
            workloads=tuple(raw["workloads"]),
            configs=tuple(raw["configs"]),
            scale=str(raw.get("scale", "small")),
            base=str(raw.get("base", "experiment")),
            machine_axes=dict(_axis_items(raw.get("machine_axes", {}),
                                          "machine_axes")),
            workload_axes=dict(_axis_items(raw.get("workload_axes", {}),
                                           "workload_axes")),
            prune=bool(raw.get("prune", False)),
        )
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as f:
            try:
                raw = json.load(f)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"sweep spec {path}: {exc}") from None
        return cls.from_dict(raw)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Fail fast on anything expansion or simulation would reject."""
        from ..sim.system import CONFIGS
        from ..workloads import ALL_WORKLOADS

        if not self.workloads:
            raise ConfigError(f"sweep {self.name!r}: no workloads")
        if not self.configs:
            raise ConfigError(f"sweep {self.name!r}: no configs")
        if self.scale not in _SCALES:
            raise ConfigError(
                f"sweep {self.name!r}: unknown scale {self.scale!r}"
            )
        for w in self.workloads:
            if w not in ALL_WORKLOADS:
                raise ConfigError(
                    f"sweep {self.name!r}: unknown workload {w!r}; "
                    f"known: {sorted(ALL_WORKLOADS)}"
                )
            _check_dataset_keys(w, self.workload_axes)
        for c in self.configs:
            if c not in CONFIGS:
                raise ConfigError(
                    f"sweep {self.name!r}: unknown config {c!r}; "
                    f"known: {sorted(CONFIGS)}"
                )
        # every machine-axis combination must derive a valid machine
        base = self.base_machine()
        for overrides in self._machine_combos():
            derive_machine(base, dict(overrides))

    def base_machine(self) -> MachineParams:
        return base_machine(self.base)

    # ------------------------------------------------------------------
    def _machine_combos(self) -> List[Tuple[Tuple[str, object], ...]]:
        items = _axis_items(self.machine_axes, "machine_axes")
        keys = [k for k, _ in items]
        combos = itertools.product(*(vals for _, vals in items))
        return [tuple(zip(keys, combo)) for combo in combos]

    def _workload_combos(self) -> List[Tuple[Tuple[str, object], ...]]:
        items = _axis_items(self.workload_axes, "workload_axes")
        keys = [k for k, _ in items]
        combos = itertools.product(*(vals for _, vals in items))
        return [tuple(zip(keys, combo)) for combo in combos]

    def points(self) -> List[SweepPoint]:
        """The expanded run matrix, in trace-sharing-friendly order:
        all machine/config points of one dataset are consecutive."""
        out = []
        for workload in self.workloads:
            for wkw in self._workload_combos():
                for mo in self._machine_combos():
                    for config in self.configs:
                        out.append(SweepPoint(
                            workload=workload, config=config,
                            scale=self.scale, machine_overrides=mo,
                            workload_kwargs=wkw,
                        ))
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scale": self.scale,
            "base": self.base,
            "workloads": list(self.workloads),
            "configs": list(self.configs),
            "machine_axes": {k: list(v)
                             for k, v in sorted(self.machine_axes.items())},
            "workload_axes": {k: list(v)
                              for k, v in sorted(self.workload_axes.items())},
            "prune": self.prune,
        }


def shipped_specs() -> Dict[str, str]:
    """Name -> path of every spec JSON shipped under ``dse/specs/``."""
    out = {}
    if os.path.isdir(SHIPPED_SPEC_DIR):
        for entry in sorted(os.listdir(SHIPPED_SPEC_DIR)):
            if entry.endswith(".json"):
                out[entry[:-5]] = os.path.join(SHIPPED_SPEC_DIR, entry)
    return out


def load_spec(name_or_path: str) -> SweepSpec:
    """Resolve a shipped spec name (``wss``, ``clocking``, ``smoke``) or
    a filesystem path to a validated :class:`SweepSpec`."""
    shipped = shipped_specs()
    if name_or_path in shipped:
        return SweepSpec.from_file(shipped[name_or_path])
    if os.path.exists(name_or_path):
        return SweepSpec.from_file(name_or_path)
    raise ConfigError(
        f"no sweep spec named {name_or_path!r} (shipped: "
        f"{sorted(shipped)}) and no such file"
    )


__all__ = [
    "SHIPPED_SPEC_DIR", "STORE_VERSION", "PlannedPoint", "SweepPoint",
    "SweepSpec", "load_spec", "shipped_specs",
]
