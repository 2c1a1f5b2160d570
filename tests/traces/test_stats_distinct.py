"""Differential test for the interval statistics' distinct count.

:func:`repro.traces.stats._distinct` counts distinct values by sorting
a copy and counting the steps between neighbours; its reference is
``len(np.unique(x))``.  Random ``uint16``, ``int64`` and ``uint64``
arrays up to 20k values must give the same count: empty and all-equal
arrays, values crowded at either end of the dtype's range (``uint64``
values on both sides of 2**63 among them), few values repeated many
times, and strided field views of a structured array like the ones
``IntervalStats`` reduces.
"""

from __future__ import annotations

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.traces.stats import _distinct

#: A failure reports the example it drew, in seconds, not a minimal one.
NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)
DTYPES = (np.uint16, np.int64, np.uint64)
SHAPES = ("drawn", "random", "few", "equal", "around")


@st.composite
def integer_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    lo, hi = int(np.iinfo(dtype).min), int(np.iinfo(dtype).max)
    shape = draw(st.sampled_from(SHAPES))
    if shape == "drawn":
        values = draw(st.lists(st.integers(lo, hi), max_size=60))
        return np.array(values, dtype=dtype)
    n = draw(st.sampled_from([0, 1, 2, 3, 100, 5000, 20_000])
             | st.integers(0, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "equal":
        return np.full(n, draw(st.integers(lo, hi)), dtype=dtype)
    if shape == "random":
        return rng.integers(lo, hi, size=n, dtype=dtype, endpoint=True)
    if shape == "few":
        pool = rng.integers(lo, hi, size=draw(st.integers(1, 40)),
                            dtype=dtype, endpoint=True)
        return rng.choice(pool, size=n)
    # Values packed around one point: a range end, zero, or 2**63.
    centre = draw(st.sampled_from(sorted({lo, 0, hi, min(2**63, hi)})))
    spread = draw(st.integers(1, 3 * n + 1))
    offsets = rng.integers(-spread, spread, size=n, endpoint=True)
    return np.array([min(max(centre + int(o), lo), hi)
                     for o in offsets.tolist()], dtype=dtype)


@settings(max_examples=200, deadline=None, phases=NO_SHRINK)
@given(integer_arrays(), st.booleans())
def test_distinct_matches_np_unique(values, as_field):
    if as_field:
        # A field of a structured array is a strided view, not a
        # contiguous array: the shape ``IntervalStats`` reduces.
        records = np.zeros(len(values), dtype=[("ts", "f8"),
                                               ("v", values.dtype)])
        records["v"] = values
        values = records["v"]
    before = values.copy()
    got = _distinct(values)
    assert type(got) is int
    assert got == len(np.unique(values))
    assert np.array_equal(values, before)  # sorted a copy


def test_distinct_edge_cases():
    assert _distinct(np.zeros(0, dtype=np.uint64)) == 0
    assert _distinct(np.full(7, 2**64 - 1, dtype=np.uint64)) == 1
    top = np.array([2**63 - 1, 2**63, 2**63, 2**64 - 1, 0], dtype=np.uint64)
    assert _distinct(top) == 4
