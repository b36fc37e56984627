"""Set-up memory bound: each set-up step holds at most one extra trace copy.

``synthesize`` holds one record array, the trace: it orders the records
by their timestamps first and writes each block straight to its output
rows (filling an array and gathering the sorted trace from it read 2.2-2.6
record arrays here); each injector that moves or adds records sorts only those and
merges them into its time-ordered input, gathering its output straight
from the input one block at a time. Measured with ``tracemalloc`` on an
epoch of ~10^5 records, a step's peak above its input must stay below
the record arrays it builds plus ``SLACK`` record arrays of columns:
timestamps, victim indexes, masks and the placed rows' columns take
~0.2-0.7 of one here (0.7 for latency, which moves a third of the
records). A step that makes another whole-trace copy of records, as a
concatenate-then-sort or a copy-then-restamp does, needs 1.5-2.1 record
arrays of slack here and fails. No injector orders as many values as
its input has records: the merge replaced a sort of the whole trace.

Victim sampling reads key bytes only for the rows it needs and draws its
uniforms ``DRAW_BLOCK`` records at a time: no injector asks for a whole
trace's key matrix, the sampling step stays under ``SAMPLING_BOUND``
record arrays (a whole (n, 13) key copy next to one float64 draw per
record took it to 0.84), and the block draws give the one-shot stream on
an epoch longer than one block.

The reorder injector's oracle over the victims' rows (a third of the
records here) builds only their restamped timestamps, orders them first
and gathers the rows once, already sorted: it stays under
``VICTIM_ORACLE_BOUND`` record arrays, where a gather followed by
``time_sorted``'s second gather took 1.19.
"""

import tracemalloc

import numpy as np
import pytest

from flowsift import inject, traceio
from flowsift.inject import (DRAW_BLOCK, INJECTORS, InjectionPlan,
                             _sample_victim_data, _victim_ooo)
from flowsift.packets import PacketType
from flowsift.synth import SynthConfig, synthesize
from flowsift.traceio import Trace

SYNTH = SynthConfig(flows=2_000, packets=50_000, seed=1)    # ~105 k records
SLACK = 0.9      # record arrays' worth of column temporaries
SAMPLING_BOUND = 0.75    # record arrays; ranking the flows alone takes 0.7
VICTIM_ORACLE_BOUND = 1.0    # record arrays; 0.84 here
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


def plan_of(kind: str) -> InjectionPlan:
    return InjectionPlan(kind, RATES[kind], victims=100, pool=100, seed=1)


@pytest.fixture(scope="module")
def base():
    return synthesize(SYNTH)[0]


def test_synthesize_holds_one_record_array(base):
    (trace, _), peak = traced_peak(synthesize, SYNTH)
    assert trace.arr.tobytes() == base.arr.tobytes()
    record_array = trace.arr.nbytes
    assert peak < (1 + SLACK) * record_array, peak / record_array


@pytest.mark.parametrize("kind", sorted(RATES))
def test_injector_holds_its_output_and_columns(base, kind):
    (out, _), peak = traced_peak(INJECTORS[kind], base, plan_of(kind))
    assert peak < out.arr.nbytes + SLACK * base.arr.nbytes, peak / base.arr.nbytes


def test_victim_sampling_stays_under_its_bound(base):
    _, peak = traced_peak(_sample_victim_data, base, plan_of("reorder"))
    assert peak < SAMPLING_BOUND * base.arr.nbytes, peak / base.arr.nbytes


def test_victim_oracle_gathers_the_victim_rows_once(base):
    _, victim_idx, sampled = _sample_victim_data(base, plan_of("reorder"))
    victims = victim_idx >= 0
    assert victims.mean() > 0.3
    _, peak = traced_peak(_victim_ooo, base, victims, sampled)
    assert peak < VICTIM_ORACLE_BOUND * base.arr.nbytes, peak / base.arr.nbytes


def test_block_draws_give_the_one_shot_sample(base):
    plan = plan_of("reorder")
    _, victim_idx, sampled = _sample_victim_data(base, plan)
    one_shot = np.random.default_rng(plan.seed + 1).random(len(base)) < plan.magnitude
    expected = (victim_idx >= 0) & (base.ptype == int(PacketType.DATA)) & one_shot
    assert len(base) > DRAW_BLOCK and expected[DRAW_BLOCK:].any()
    np.testing.assert_array_equal(sampled, expected)


@pytest.mark.parametrize("kind", sorted(INJECTORS))
def test_injector_copies_no_whole_key_matrix(base, kind, monkeypatch):
    rows = []
    key_matrix = Trace.key_matrix

    def counted(self, *args, **kwargs):
        matrix = key_matrix(self, *args, **kwargs)
        rows.append(len(matrix))
        return matrix

    monkeypatch.setattr(Trace, "key_matrix", counted)
    INJECTORS[kind](base, plan_of(kind))
    assert rows, "victim selection reads key bytes through key_matrix"
    assert [r for r in rows if r >= len(base)] == []


@pytest.mark.parametrize("kind", sorted(INJECTORS))
def test_injector_sorts_no_whole_trace(base, kind, monkeypatch):
    sizes = []

    def counted(sort):
        def call(values, *args):
            sizes.append(len(values))
            return sort(values, *args)
        return call

    monkeypatch.setattr(traceio, "stable_order", counted(traceio.stable_order))
    monkeypatch.setattr(inject, "time_order", counted(inject.time_order))
    INJECTORS[kind](base, plan_of(kind))
    assert sizes or kind == "loss", "a moving injector orders its placed rows"
    assert [s for s in sizes if s >= len(base)] == []
