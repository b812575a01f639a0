"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed kernel IR (bad types, unknown objects, invalid loops)."""


class InterpreterError(ReproError):
    """Runtime failure while interpreting a kernel (e.g. out-of-bounds)."""


class DFGError(ReproError):
    """Failure while building or analyzing a dataflow graph."""


class AnalysisError(ReproError):
    """Static analysis rejected a kernel (see ``repro.analysis``).

    Carries the list of :class:`repro.analysis.Finding` objects that
    triggered the rejection in ``findings``.
    """

    def __init__(self, message: str, findings=()):
        super().__init__(message)
        self.findings = list(findings)


class PartitionError(ReproError):
    """Graph partitioning could not produce a legal solution."""


class PlacementError(ReproError):
    """Access/compute node placement failed."""


class MappingError(ReproError):
    """A DFG could not be mapped onto the target accelerator substrate."""


class InterfaceError(ReproError):
    """Illegal use of the cp_* offload interface (bad ids, bad ordering)."""


class AllocationError(ReproError):
    """Resource allocation failure (buffers, slab memory, accelerators)."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an illegal state."""


class DeadlockError(SimulationError):
    """All simulation processes are blocked and no events remain."""


class ConfigError(ReproError):
    """Invalid machine or experiment configuration."""


class MachineConfigError(ConfigError):
    """A machine failed validation, from a document or an override.

    ``violations`` lists every independent problem found, each naming
    its field, so a machine with a non-power-of-two set count *and* an
    undersized mesh reports both in one error.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid machine: " + "; ".join(self.violations))
