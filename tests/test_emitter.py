"""``serialize.dumps`` writes what ``json.dumps(doc, indent=2, sort_keys=True)``
writes, plus a final newline, byte for byte, and raises what it raises."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reeb_orbit import realize, serialize
from reeb_orbit.fuzz import random_measured_graph
from reeb_orbit.surface import remap
from tests.test_totality import JSON_DOCS

HUGE = 1.7976931348623157e308


def reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def outcome(write, doc):
    """The text written, or the type of the exception raised."""
    try:
        return write(doc)
    except Exception as exc:  # the property compares failures too
        return type(exc)


FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e16, 1e-5, math.nan, math.inf, -math.inf, HUGE]
)
# np.float64 is a float subclass, bool an int subclass
NUMBERS = FLOATS | FLOATS.map(np.float64) | st.booleans() | st.integers(-(2**70), 2**70)
# keys json.dumps turns into strings; mixed with str keys, sorting them fails
KEYS = st.integers(-3, 3) | st.floats() | st.booleans() | st.none()
# keys that the column templates must escape
RECORD_KEYS = ("", "a", "{}", "}{0}", "é\n")


def _tables(inner):
    """Arrays of one length and objects with one key set: the shapes written
    a column at a time."""
    arrays = st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(inner, min_size=n, max_size=n) | st.tuples(*[inner] * n), min_size=1, max_size=6)
    )
    records = st.sampled_from([1, 3, 5]).flatmap(
        lambda n: st.lists(st.fixed_dictionaries({k: inner for k in RECORD_KEYS[:n]}), min_size=1, max_size=6)
    )
    return arrays | records


EMIT_DOCS = st.recursive(
    JSON_DOCS | NUMBERS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=3),
        st.dictionaries(st.text(max_size=2) | KEYS, inner, max_size=3),
        st.lists(FLOATS, max_size=8),
        st.lists(NUMBERS, max_size=8),
        st.lists(st.sampled_from([HUGE, -HUGE, 1e308]), min_size=2, max_size=4),
        _tables(inner),
        _tables(FLOATS),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(EMIT_DOCS)
def test_dumps_writes_what_json_dumps_writes(doc):
    assert outcome(serialize.dumps, doc) == outcome(reference, doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"a": np.zeros(2)},
        {"a": [1.0, 2.0], "b": {1, 2}},
        [[1.0, 2.0], [3.0, np.zeros(1)]],
        [{"a": 1, "b": {0.5}}, {"a": 2, "b": 0.5}],
        {"a": [1.0, float("nan")], 1: 2},
    ],
    ids=["ndarray", "set", "ndarray-in-column", "set-in-record", "mixed-keys"],
)
def test_dumps_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(Exception) as want:
        reference(doc)
    with pytest.raises(want.type):
        serialize.dumps(doc)


def test_dumps_peaks_below_half_of_json_dumps_on_a_refined_mesh():
    # json.dumps gathers every chunk of the document in one list before it
    # joins them; dumps holds one string per container
    surface = realize(random_measured_graph(20009, samples=12), resolution=6).surface
    doc = remap(surface, {"kind": "refine"}).to_dict()
    peaks = []
    for write in (reference, serialize.dumps):
        tracemalloc.start()
        text = write(doc)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        del text
    assert len(reference(doc)) > 500_000
    assert peaks[1] <= peaks[0] / 2, peaks
