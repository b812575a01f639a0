"""ColumnarTrace: round-trip fidelity with the tuple representation.

The columnar (structure-of-arrays) trace must be a drop-in replacement
for the historical ``List[MemAccess]``: building it from records,
slicing it, pickling it and replaying it element by
element must all reproduce the exact tuple sequence.
"""

import pickle
import random

import numpy as np
import pytest

from repro.ir.interp import Interpreter, MemAccess
from repro.ir.trace import ColumnarTrace

from tests.sim.test_tracecache import vec_add_kernel


def random_records(seed: int, n: int = 500):
    rng = random.Random(seed)
    objs = ("A", "B", "C", "out")
    return [
        MemAccess(
            site_id=rng.randrange(0, 12),
            obj=rng.choice(objs),
            elem_index=rng.randrange(0, 1 << 20),
            is_write=rng.random() < 0.4,
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_from_records_roundtrip(seed):
    records = random_records(seed)
    trace = ColumnarTrace.from_records(records)
    assert len(trace) == len(records)
    assert list(trace) == records
    assert trace == records  # sequence equality against the tuple form
    # random indexing reproduces exact MemAccess tuples
    for k in (0, 7, len(records) - 1):
        assert trace[k] == records[k]
    assert isinstance(trace[3], MemAccess)


def test_slicing_preserves_records():
    records = random_records(3)
    trace = ColumnarTrace.from_records(records)
    window = trace[100:257]
    assert isinstance(window, ColumnarTrace)
    assert list(window) == records[100:257]


def test_pickle_spill_roundtrip():
    """A pickled and reloaded trace reproduces the identical access
    sequence."""
    records = random_records(5)
    trace = ColumnarTrace.from_records(records)
    clone = pickle.loads(pickle.dumps(trace))
    assert clone == trace
    assert list(clone) == records


def test_addresses_match_scalar_math():
    records = random_records(9)
    trace = ColumnarTrace.from_records(records)
    bases = {"A": 0x1000, "B": 0x80_0000, "C": 0x100_0000, "out": 0x200_0000}
    ebytes = {"A": 4, "B": 8, "C": 4, "out": 8}
    addrs = trace.addresses(bases, ebytes)
    expected = [bases[r.obj] + r.elem_index * ebytes[r.obj] for r in records]
    assert addrs.tolist() == expected
    assert addrs.dtype == np.int64


def test_num_writes_and_streams_by_site():
    records = random_records(11)
    trace = ColumnarTrace.from_records(records)
    assert trace.num_writes() == sum(r.is_write for r in records)
    streams = trace.streams_by_site()
    by_site = {}
    for r in records:
        by_site.setdefault(r.site_id, []).append(r.elem_index)
    assert set(streams) == set(by_site)
    for site, idxs in by_site.items():
        # program order within each site must be preserved
        assert streams[site].tolist() == idxs


def test_empty_trace():
    trace = ColumnarTrace.empty()
    assert len(trace) == 0
    assert list(trace) == []
    assert trace == []
    assert trace.num_writes() == 0
    assert trace.streams_by_site() == {}
    assert trace.addresses({}, {}).shape == (0,)


def test_interpreter_emits_columnar_trace():
    """The golden interpreter's recorded trace is columnar, and replaying
    it element by element yields ordinary MemAccess tuples."""
    kernel = vec_add_kernel(8)
    arrays = {
        name: np.arange(obj.num_elements, dtype=np.float32)
        for name, obj in kernel.objects.items()
    }
    res = Interpreter(record_trace=True).run(kernel, arrays, {})
    assert isinstance(res.trace, ColumnarTrace)
    assert len(res.trace) == 3 * 8  # load A, load B, store C per element
    for acc in res.trace:
        assert isinstance(acc, MemAccess)
    assert res.trace.num_writes() == 8
