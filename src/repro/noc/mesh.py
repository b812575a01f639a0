"""Mesh topology with dimension-ordered (XY) routing.

Nodes are numbered row-major: node = row * cols + col. The host tile is
co-located with the node named by ``NocParams.host_node`` (node 0 in
the paper's Table III machine), matching a single-core system where the
core's L2 connects to the L3 mesh at one point. XY routing is
deadlock-free on a mesh, which is why the credit accounting here never
needs an escape path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..errors import ConfigError
from ..events import cycles_to_ps
from ..params import NocParams


@dataclass(frozen=True)
class Coord:
    row: int
    col: int


class Mesh:
    """Geometry and routing for the L3-cluster mesh."""

    def __init__(self, params: NocParams):
        if params.mesh_cols < 1 or params.mesh_rows < 1:
            raise ConfigError(f"bad mesh dims: {params}")
        self.params = params
        self.cols = params.mesh_cols
        self.rows = params.mesh_rows
        # Manhattan distances, precomputed once: hops() sits on every
        # traffic-accounting path and the mesh is tiny (O(n^2) ints)
        n = self.rows * self.cols
        self._hops: List[List[int]] = [
            [
                abs(s // self.cols - d // self.cols)
                + abs(s % self.cols - d % self.cols)
                for d in range(n)
            ]
            for s in range(n)
        ]

    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def coord(self, node: int) -> Coord:
        self._check(node)
        return Coord(node // self.cols, node % self.cols)

    def node_at(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigError(f"coordinate out of mesh: ({row}, {col})")
        return row * self.cols + col

    def _check(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ConfigError(
                f"node {node} outside mesh of {self.num_nodes} nodes"
            )

    # -- routing ----------------------------------------------------------
    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance (number of link traversals) src -> dst."""
        if src < 0 or dst < 0:
            self._check(src)
            self._check(dst)
        try:
            return self._hops[src][dst]
        except IndexError:
            self._check(src)
            self._check(dst)
            raise  # pragma: no cover - _check raises first

    def route(self, src: int, dst: int) -> List[int]:
        """XY route: full node path including both endpoints."""
        a, b = self.coord(src), self.coord(dst)
        path = [self.node_at(a.row, a.col)]
        col = a.col
        while col != b.col:
            col += 1 if b.col > col else -1
            path.append(self.node_at(a.row, col))
        row = a.row
        while row != b.row:
            row += 1 if b.row > row else -1
            path.append(self.node_at(row, b.col))
        return path

    # -- timing ------------------------------------------------------------
    def latency_ps(self, src: int, dst: int, payload_bytes: int,
                   freq_ghz: float = 2.0) -> int:
        """Head-to-tail latency of one message at NoC clock ``freq_ghz``.

        Pipeline model: per-hop latency for the head flit plus one cycle
        per additional flit of serialization.
        """
        flits = self.num_flits(payload_bytes)
        cycles = self.hops(src, dst) * self.params.hop_latency_cycles
        cycles += max(flits - 1, 0)
        return cycles_to_ps(cycles, freq_ghz)

    def num_flits(self, payload_bytes: int) -> int:
        if payload_bytes < 0:
            raise ConfigError(f"negative payload: {payload_bytes}")
        if payload_bytes == 0:
            return 1  # header-only (control) message
        fb = self.params.flit_bytes
        return (payload_bytes + fb - 1) // fb

    def all_pairs(self) -> Iterator[Tuple[int, int]]:
        for s in range(self.num_nodes):
            for d in range(self.num_nodes):
                yield s, d
