"""Mesh network-on-chip model.

The L3 clusters sit on an arbitrary rectangular mesh (Table III: 8
clusters on 4x2); the host tile attaches at ``NocParams.host_node``.
The model provides XY routing with hop counting, per-message
latency/energy, and a traffic ledger that splits bytes into the paper's
four Figure-10 classes: host control, host data, inter-accelerator
control and inter-accelerator data.
"""

from .mesh import Mesh
from .traffic import MessageCosts, TrafficClass, TrafficLedger

__all__ = [
    "Mesh",
    "MessageCosts",
    "TrafficClass",
    "TrafficLedger",
]
