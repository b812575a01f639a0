"""Area model reproducing the Section VI-E overhead analysis.

The paper (via McPAT, Yosys + FreePDK45 scaled to 32 nm [58]) reports:

* one lightweight in-order accelerator core = **1.9 %** of an L3 cluster's
  area (0.3 % of the whole chip), and
* one 5x5 heterogeneous CGRA tile + buffers + ACP = **2.9 %** per cluster
  (0.48 % of the chip).

We reproduce those percentages from component areas (mm^2 at 32 nm) of
McPAT/Cacti magnitude. An L3 cluster here is 256 KB of SRAM plus bank
control and a router share; the chip additionally has the OoO core, its
L1/L2, and uncore.
"""

from __future__ import annotations

from ..params import AreaTable, CgraParams, MachineParams

__all__ = ["AreaTable", "AreaModel", "default_area_model"]


class AreaModel:
    """Computes accelerator area overheads per cluster and per chip from
    the machine's own ``area`` charge sheet (document-sourced; see
    :mod:`repro.machine`)."""

    def __init__(self, machine: MachineParams):
        self.machine = machine
        self.table = machine.area

    # -- aggregates ------------------------------------------------------
    def chip_area(self) -> float:
        """Baseline chip area (no accelerators), mm^2."""
        t = self.table
        return (
            t.ooo_core + t.l2 + t.uncore_misc
            + self.machine.l3_clusters * t.l3_cluster
        )

    def access_unit_area(self) -> float:
        t = self.table
        return t.access_buffer_4kb + t.acp_1kb + t.stride_fsm

    def io_overhead_per_cluster(self) -> float:
        """IO-core accelerator area as a fraction of one L3 cluster."""
        area = self.table.io_accel_core
        return area / self.table.l3_cluster

    def cgra_area(self, cgra: CgraParams | None = None) -> float:
        """Area of one heterogeneous CGRA fabric, mm^2."""
        c = cgra or self.machine.cgra
        t = self.table
        return (
            c.int_alus * t.cgra_pe_int
            + c.float_alus * t.cgra_pe_float
            + c.complex_alus * t.cgra_pe_complex
            + c.num_pes * t.cgra_network_per_pe
        )

    def cgra_overhead_per_cluster(self, cgra: CgraParams | None = None,
                                  with_access_unit: bool = True) -> float:
        """CGRA (+ buffers + ACP) area as a fraction of one L3 cluster."""
        area = self.cgra_area(cgra)
        if with_access_unit:
            area += self.access_unit_area()
        return area / self.table.l3_cluster

    def chip_overhead(self, per_cluster_area: float) -> float:
        """Fraction of the whole chip for one unit replicated per cluster."""
        total = per_cluster_area * self.machine.l3_clusters
        return total / (self.chip_area() + total)

    # -- headline numbers (Section VI-E) ----------------------------------
    def io_report(self) -> dict:
        per_cluster = self.io_overhead_per_cluster()
        return {
            "per_cluster_pct": 100.0 * per_cluster,
            "chip_pct": 100.0 * self.chip_overhead(self.table.io_accel_core),
        }

    def cgra_report(self) -> dict:
        per_cluster = self.cgra_overhead_per_cluster()
        unit_area = self.cgra_area() + self.access_unit_area()
        return {
            "per_cluster_pct": 100.0 * per_cluster,
            "chip_pct": 100.0 * self.chip_overhead(unit_area),
        }


def default_area_model(machine: MachineParams | None = None) -> AreaModel:
    from ..params import default_machine

    return AreaModel(machine or default_machine())
