"""Set-up memory bound: each set-up step holds at most one extra trace copy.

``synthesize`` fills one record array and gathers the time-sorted trace
from it; each injector builds a new timestamp column (or the appended
rows) and gathers its output straight from its input. Measured with
``tracemalloc`` on an epoch of ~10^5 records, a step's peak above its
input must stay below the record arrays it builds plus ``SLACK`` record
arrays of columns: timestamps, the order, victim indexes and masks take
~0.5-0.7 of one here. A step that makes another whole-trace copy of
records, as a concatenate-then-sort or a copy-then-restamp does, needs
1.5-2.1 record arrays of slack here and fails.
"""

import tracemalloc

import pytest

from flowsift.inject import INJECTORS, InjectionPlan
from flowsift.synth import SynthConfig, synthesize

SYNTH = SynthConfig(flows=2_000, packets=50_000, seed=1)    # ~105 k records
SLACK = 0.9      # record arrays' worth of column temporaries
RATES = {"latency": 1_000_000, "loss": 0.1, "reorder": 0.1, "duplicate": 0.1}


def traced_peak(step, *args):
    """(result, peak bytes allocated while ``step`` ran, above what was
    allocated before it)."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = step(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


@pytest.fixture(scope="module")
def base():
    return synthesize(SYNTH)[0]


def test_synthesize_holds_two_record_arrays(base):
    (trace, _), peak = traced_peak(synthesize, SYNTH)
    assert trace.arr.tobytes() == base.arr.tobytes()
    record_array = trace.arr.nbytes
    assert peak < (2 + SLACK) * record_array, peak / record_array


@pytest.mark.parametrize("kind", sorted(RATES))
def test_injector_holds_its_output_and_columns(base, kind):
    plan = InjectionPlan(kind, RATES[kind], victims=100, pool=100, seed=1)
    (out, _), peak = traced_peak(INJECTORS[kind], base, plan)
    assert peak < out.arr.nbytes + SLACK * base.arr.nbytes, peak / base.arr.nbytes
