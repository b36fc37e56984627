import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsift.loss import LossDetector, loss_count_estimate
from flowsift.oracle import loss_counts
from flowsift.packets import PacketRecord, PacketType
from flowsift.traceio import Trace

from conftest import data_packet, flow_stream, make_key


def single_flow_trace(seqs) -> Trace:
    seqs = np.asarray(list(seqs), dtype=np.uint64)
    arr = np.zeros(len(seqs), dtype=Trace.empty().arr.dtype)
    key = make_key(0)
    arr["src"], arr["dst"] = key.src, key.dst
    arr["sport"], arr["dport"], arr["proto"] = key.src_port, key.dst_port, key.proto
    arr["ptype"] = int(PacketType.DATA)
    arr["seq"] = seqs
    arr["ts"] = np.arange(len(seqs), dtype=np.uint64) * 1000
    arr["size"] = 100
    return Trace(arr)


def single_flow_estimate(seqs, seed=0, buckets=256):
    det = LossDetector(buckets=buckets, rows=5, run_seed=seed)
    det.run(single_flow_trace(seqs), 1)
    return det.table.estimate(make_key(0).to_bytes())


def test_complete_even_flow_cancels_exactly():
    assert single_flow_estimate(range(1, 2001)) == 0


def test_complete_odd_flow_leaves_at_most_one():
    assert abs(single_flow_estimate(range(1, 2002))) <= 1


@pytest.mark.parametrize("repeated", [1, 500, 2000])
def test_repeated_id_steps_the_walk_of_a_lossless_flow(repeated):
    # loss docstring: a repeated id is an unpaired step, so one id sent
    # twice walks to magnitude 1 while the exact missing-id count is 0
    seqs = list(range(1, 2001))
    seqs.insert(repeated, repeated)
    assert abs(single_flow_estimate(seqs)) == 1
    _, missing = loss_counts(single_flow_trace(seqs))
    assert missing.tolist() == [0]


def test_random_removal_walk_matches_expectation():
    # 2000 of 20000 ids removed uniformly; median |walk| over 200 seeds
    # within 25% of sqrt(2m/pi)
    target = math.sqrt(2 * 2000 / math.pi)
    walks = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        keep = np.setdiff1d(np.arange(1, 20_001),
                            rng.choice(np.arange(1, 20_001), 2000, replace=False))
        walks.append(abs(single_flow_estimate(keep, seed=seed)))
    med = float(np.median(walks))
    assert target * 0.75 <= med <= target * 1.25


def simple_walk_moments(steps: int) -> tuple[float, float]:
    """E|S| and Var|S| of a simple random walk S of ``steps`` +/-1 steps,
    exact from the binomial law of its up-steps."""
    mean = sum(math.comb(steps, up) * abs(2 * up - steps)
               for up in range(steps + 1)) / 2 ** steps
    return mean, steps - mean * mean       # E[S^2] = steps


WALK_SEEDS = 200


@settings(derandomize=True, max_examples=30)
@given(length=st.integers(2, 400), data=st.data())
def test_walk_magnitude_matches_simple_random_walk(length, data):
    # loss.py: each pair with one member missing is one +/-1 step of the
    # walk, so over hash seeds the mean |walk| is E|S_m| of a simple random
    # walk of those m steps (~sqrt(2m/pi) for large m)
    lost = data.draw(st.integers(1, length - 1), label="lost")
    removal_seed = data.draw(st.integers(0, 2 ** 32 - 1), label="removal_seed")
    ids = np.arange(1, length + 1)
    kept = np.setdiff1d(ids, np.random.default_rng(removal_seed).choice(ids, lost,
                                                                       replace=False))
    steps = int((np.bincount((kept + 1) // 2) == 1).sum())
    walks = [abs(single_flow_estimate(kept, seed=seed)) for seed in range(WALK_SEEDS)]
    expected, variance = simple_walk_moments(steps)
    # six standard errors of the mean: ~2e-9 per drawn case (normal law)
    assert abs(np.mean(walks) - expected) <= 6 * math.sqrt(variance / WALK_SEEDS) + 1e-9


def test_full_pair_removal_is_invisible():
    # drop both members of 500 pairs: cancellation is unaffected
    rng = np.random.default_rng(3)
    lost_pairs = rng.choice(np.arange(1, 10_001), 500, replace=False)
    seqs = [s for s in range(1, 20_001)
            if (s + 1) // 2 not in set(lost_pairs.tolist())]
    assert single_flow_estimate(seqs) == 0


def test_walk_bounded_by_unpaired_count_every_seed():
    rng = np.random.default_rng(9)
    seqs = sorted(rng.choice(np.arange(1, 2001), 1200, replace=False).tolist())
    pairs = {}
    for s in seqs:
        pairs.setdefault((s + 1) // 2, []).append(s)
    unpaired = sum(1 for members in pairs.values() if len(members) == 1)
    for seed in range(25):
        assert abs(single_flow_estimate(seqs, seed=seed)) <= unpaired


def test_acks_ignored():
    det = LossDetector(buckets=64, rows=3, run_seed=1)
    det.observe_trace(Trace.from_records([PacketRecord(make_key(1), PacketType.ACK, 0, 5,
                                                       100, 40)]))
    assert det.skipped == 1
    assert not det.table.counters.any()


def test_seq_zero_rejected():
    det = LossDetector(buckets=64, rows=3, run_seed=1)
    with pytest.raises(ValueError):
        det.observe_trace(Trace.from_records([data_packet(make_key(1), 0, 100)]))


def test_topk_flags_nothing_without_losses():
    det = LossDetector(buckets=512, rows=5, run_seed=2)
    keys, records = [], []
    for i in range(40):
        key = make_key(i)
        records += flow_stream(key, range(1, 8))   # odd length: walk = +/-1
        keys.append(key.to_bytes())
    det.observe_trace(Trace.from_records(records))
    report = det.topk(keys, k=40)
    assert max(v for _, v in report.entries) <= 1


def test_topk_carries_candidate_normalization():
    det = LossDetector(buckets=512, rows=5, run_seed=3)
    rng = np.random.default_rng(4)
    lossy = make_key(0)
    kept = np.setdiff1d(np.arange(1, 2001),
                        rng.choice(np.arange(1, 2001), 400, replace=False))
    intact = make_key(1)
    det.observe_trace(Trace.from_records(flow_stream(lossy, kept)
                                         + flow_stream(intact, range(1, 2001))))
    report = det.topk([lossy.to_bytes(), intact.to_bytes()], k=2)
    assert report.keys()[0] == lossy.to_bytes()


@pytest.mark.parametrize("walk,expected", [(0.0, 0), (1.0, 2)])
def test_loss_count_inversion_small_values(walk, expected):
    assert loss_count_estimate(walk) == expected


def test_loss_count_inversion_round_trip():
    assert abs(loss_count_estimate(math.sqrt(2 * 2000 / math.pi)) - 2000) <= 1
    with pytest.raises(ValueError):
        loss_count_estimate(-1.0)


def test_batch_matches_scalar(small_trace):
    d1 = LossDetector(buckets=128, rows=5, run_seed=5)
    d2 = LossDetector(buckets=128, rows=5, run_seed=5)
    for p in small_trace.records():
        d1.observe_trace(Trace.from_records([p]))
    d2.run(small_trace, 1)
    assert (d1.table.counters == d2.table.counters).all()
    assert d1.skipped == d2.skipped
