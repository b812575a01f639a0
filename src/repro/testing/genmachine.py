"""Seeded random machine-description generator for conformance fuzzing.

One seed in, one *valid* machine document out: cluster counts from
{1, 2, 4, 8, 16}, every mesh shape large enough to host them (with a
random host tile and memory-controller attachment), randomized per-level
cache geometry (power-of-two set counts by construction), clock ratios
and access-unit sizing. Capacities stay experiment-scale small so a
fuzz case simulates in milliseconds. Energy/area charge
sheets keep their calibrated defaults — the AN-C static cost bounds are
part of the oracle, and their fixed margins are calibrated against the
default tables.

Documents are sparse (deltas against Table III), which keeps the
shrinker's job simple: dropping a key moves the machine *toward* the
reference configuration.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Optional, Sequence

from ..machine import validate_document

#: cluster counts the generator draws from (ISSUE-mandated set)
CLUSTER_COUNTS = (1, 2, 4, 8, 16)

#: candidate mesh shapes (cols, rows); a draw only considers shapes with
#: at least one node per L3 cluster
MESH_SHAPES = ((1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (8, 2),
               (8, 4))

#: accelerator clock ratios relative to the 2 GHz host (paper §VI-E)
ACCEL_FREQS = (0.5, 1.0, 2.0)

_LINE = 64


def generate_machine_doc(seed: int) -> Dict[str, object]:
    """Deterministically draw one valid machine document from ``seed``."""
    rng = random.Random(seed)
    clusters = rng.choice(CLUSTER_COUNTS)
    cols, rows = rng.choice(
        [s for s in MESH_SHAPES if s[0] * s[1] >= clusters]
    )
    nodes = cols * rows

    l1_ways = rng.choice((2, 4, 8))
    l2_ways = rng.choice((4, 8, 16))
    l3_ways = rng.choice((4, 8, 16))
    slice_sets = rng.choice((2, 4, 8))
    accel_freq = rng.choice(ACCEL_FREQS)

    doc: Dict[str, object] = {
        "schema_version": 1,
        "name": f"fuzz-machine-{seed}",
        "l1": {
            "size_bytes": rng.choice((2, 4)) * l1_ways * _LINE,
            "ways": l1_ways,
        },
        "l2": {
            "size_bytes": rng.choice((4, 8)) * l2_ways * _LINE,
            "ways": l2_ways,
        },
        "l3": {
            "size_bytes": slice_sets * l3_ways * _LINE * clusters,
            "ways": l3_ways,
            "latency_cycles": rng.randint(6, 12),
        },
        "l3_clusters": clusters,
        "l3_bank_latency": rng.randint(1, 4),
        "noc": {
            "mesh_cols": cols,
            "mesh_rows": rows,
            "hop_latency_cycles": rng.choice((1, 2, 3)),
            "host_node": rng.randrange(clusters),
            "mc_node": rng.randrange(nodes),
        },
        "dram": {
            "bandwidth_bytes_per_cycle": rng.choice((6.4, 12.8, 25.6)),
        },
        "inorder": {"freq_ghz": accel_freq},
        "cgra": {"freq_ghz": accel_freq},
        "access_unit": {
            "buffer_bytes": rng.choice((512, 1024, 2048)),
            "acp_bytes": rng.choice((128, 256, 512)),
        },
        "mono_private_bytes": 4 * _LINE * rng.choice((1, 2, 4, 8)),
    }
    # a generator bug must fail loudly here, not as a confusing oracle
    # failure downstream
    validate_document(doc)
    return doc


def machine_doc_stream(seed: int, count: int
                       ) -> Iterator[Dict[str, object]]:
    """Yield ``count`` documents with per-doc sub-seeds from ``seed``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield generate_machine_doc(rng.getrandbits(32))


def machine_histogram(docs: Sequence[Optional[Dict[str, object]]]
                      ) -> Dict[str, int]:
    """Cluster-count histogram of the machine axis (fuzz report)."""
    hist: Dict[str, int] = {}
    for doc in docs:
        if doc is None:
            continue
        key = str(doc.get("l3_clusters", "default"))
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items(), key=lambda kv: int(kv[0])))
