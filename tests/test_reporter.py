import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowsift import hashing
from flowsift.countsketch import CountSketchTable
from flowsift.latency import LatencyDetector
from flowsift.loss import LossDetector
from flowsift.reporter import (BloomGate, CandidateLog, ExactGate,
                               controller_topk, maybe_report)
from flowsift.retransmit import RetransmitDetector

from conftest import random_keys


def test_below_threshold_not_reported():
    gate, log = BloomGate(run_seed=1), CandidateLog()
    assert maybe_report(gate, log, b"key", estimate=5.0, threshold=10.0) is False
    assert len(log) == 0


def test_first_crossing_reported_then_deduplicated():
    gate, log = BloomGate(run_seed=2), CandidateLog()
    assert maybe_report(gate, log, b"key", 20.0, 10.0, ts=7) is True
    assert maybe_report(gate, log, b"key", 25.0, 10.0, ts=9) is False
    assert log.entries == [(b"key", 7, 20.0)]


@pytest.mark.parametrize("make_gate", [lambda: BloomGate(run_seed=8), ExactGate],
                         ids=["bloom", "exact"])
def test_gate_insert_says_whether_key_was_new(make_gate):
    gate = make_gate()
    assert gate.insert(b"key") is True
    assert gate.insert(b"key") is False
    assert b"key" in gate
    assert gate.inserted == 1


def _one_at_a_time(gate: BloomGate, folds: list[int]) -> tuple[list[int], list[bool]]:
    """Scalar reference: new indices and final bits, one fold at a time."""
    bits, new = [False] * gate.bits, []
    for i, x in enumerate(folds):
        positions = [hashing.bucket_of_fold(p, x, gate.bits) for p in gate._pairs]
        if not all(bits[pos] for pos in positions):
            for pos in positions:
                bits[pos] = True
            new.append(i)
    return new, bits


@given(st.data())
def test_insert_folds_matches_one_at_a_time_reference(data):
    pool = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    folds = data.draw(st.lists(st.sampled_from(pool), max_size=120))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(folds)), max_size=8)))
    gate = BloomGate(bits=64, hashes=data.draw(st.integers(1, 6)),
                     run_seed=data.draw(st.integers(0, 2**16)))
    got = []
    for lo, hi in zip([0] + cuts, cuts + [len(folds)]):
        chunk = np.array(folds[lo:hi], dtype=np.uint64)
        got += [lo + i for i in gate.insert_folds(chunk)]
    new, bits = _one_at_a_time(gate, folds)
    assert got == new
    assert gate.array.tolist() == bits
    assert gate.inserted == len(new)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=20, max_size=20), st.integers(0, 2**16))
def test_one_call_on_eight_bits_matches_one_at_a_time(folds, run_seed):
    # 20 folds on 8 bits with one hash: most share a bit with another, and
    # those that share none are decided together
    gate = BloomGate(bits=8, hashes=1, run_seed=run_seed)
    got = gate.insert_folds(np.array(folds, dtype=np.uint64))
    new, bits = _one_at_a_time(gate, folds)
    assert got == new
    assert gate.array.tolist() == bits
    assert gate.inserted == len(new)


def test_insert_folds_refuses_false_positives_within_one_call(rng):
    # every bit starts clear, so each refusal below is set up by an
    # earlier fold of the same call
    gate = BloomGate(bits=64, hashes=2, run_seed=12)
    folds = np.unique(rng.integers(0, 2**63, 200, dtype=np.uint64))
    new = gate.insert_folds(folds)
    assert len(new) < len(folds)
    assert new == _one_at_a_time(gate, folds.tolist())[0]


def test_negative_threshold_rejected():
    with pytest.raises(ValueError):
        maybe_report(BloomGate(), CandidateLog(), b"k", 1.0, -0.1)


def test_bloom_false_positive_rate_at_defaults(rng):
    gate = BloomGate(run_seed=3)
    keys = random_keys(rng, 104_000)
    for key in keys[:4000]:
        gate.insert(key)
    fp = sum(1 for key in keys[4000:] if key in gate)
    assert fp / 100_000 <= 0.01


def test_exact_gate_has_no_false_positives(rng):
    gate = ExactGate()
    keys = random_keys(rng, 5000)
    for key in keys[:1000]:
        gate.insert(key)
    assert not any(key in gate for key in keys[1000:])


def test_differential_exact_vs_bloom(rng):
    # the exact and bloom logs differ exactly by the bloom gate's
    # false-positive suppressions
    keys = random_keys(rng, 30_000)
    bloom, exact = BloomGate(bits=1 << 12, run_seed=4), ExactGate()
    blog, elog = CandidateLog(), CandidateLog()
    suppressed = []
    for key in keys:
        fp = key in bloom
        got_b = maybe_report(bloom, blog, key, 1.0, 0.0)
        got_e = maybe_report(exact, elog, key, 1.0, 0.0)
        assert got_e is True
        if not got_b:
            assert fp
            suppressed.append(key)
    assert set(elog.keys()) - set(blog.keys()) == set(suppressed)
    assert len(suppressed) > 0   # 30k keys saturate a 4096-bit array


def test_controller_matches_in_process_ranking(rng):
    table = CountSketchTable(5, 256, run_seed=5)
    keys = random_keys(rng, 50)
    log = CandidateLog(seed_signature=table.seed_signature())
    for i, key in enumerate(keys):
        table.update(key, (i + 1) * 3)
        log.entries.append((key, i, 0.0))
    report = controller_topk(table.to_bytes(), log, k=10)
    direct = sorted(((key, abs(table.estimate(key))) for key in keys),
                    key=lambda kv: (-kv[1], kv[0]))[:10]
    assert report.entries == [(k, float(v)) for k, v in direct]


def test_controller_rejects_seed_mismatch(rng):
    table = CountSketchTable(5, 256, run_seed=6)
    other = CountSketchTable(5, 256, run_seed=7)
    log = CandidateLog(seed_signature=other.seed_signature())
    log.entries.append((b"x" * 13, 0, 1.0))
    with pytest.raises(ValueError, match="seed"):
        controller_topk(table.to_bytes(), log, k=5)


def test_controller_empty_log():
    table = CountSketchTable(3, 64, run_seed=8)
    assert controller_topk(table, CandidateLog(), 5).entries == []


def test_suppressed_key_missing_from_report(rng):
    # force a false positive by preloading the gate bits via insertions,
    # then show the suppressed key never reaches the report
    keys = random_keys(rng, 4000)
    gate = BloomGate(bits=256, hashes=2, run_seed=9)
    table = CountSketchTable(5, 256, run_seed=9)
    log = CandidateLog(seed_signature=table.seed_signature())
    victim = None
    for key in keys:
        table.update(key, 100)
        if victim is None and key not in gate:
            maybe_report(gate, log, key, 100.0, 0.0)
        elif victim is None and len(log) > 50:
            victim = key          # not logged: gate already claims it
            assert maybe_report(gate, log, key, 100.0, 0.0) is False
    assert victim is not None
    report = controller_topk(table, log, k=len(keys))
    assert victim not in report.keys()


def test_candidate_log_csv_round_trip(tmp_path):
    log = CandidateLog()
    log.entries = [(b"\x01" * 13, 42, 7.5), (b"\xff" * 26, 99, 0.0)]
    path = tmp_path / "cand.csv"
    log.write_csv(path)
    back = CandidateLog.read_csv(path)
    assert back.entries == log.entries


@pytest.mark.parametrize("cls", [LatencyDetector, LossDetector, RetransmitDetector])
def test_observe_batch_feeds_the_chunk_stream_one_entry_per_admitted_record(cls,
                                                                            small_trace):
    # the trace mixes SYN, SYNACK, DATA and ACK records, so every detector
    # both admits and skips some
    det = cls(buckets=64, rows=3, run_seed=1)
    fed = det.observe_batch(small_trace)
    assert 0 < len(fed.rows) < len(small_trace)
    assert det.skipped + len(fed.rows) == len(small_trace)
    assert (np.diff(fed.rows) > 0).all()
    assert all(len(column) == len(fed.rows) for column in fed)
    assert (fed.folds == hashing.fold64_matrix(fed.keys)).all()
    assert not det.table.counters.any() and det.table.total_l1 == 0
