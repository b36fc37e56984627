import numpy as np
import pytest

from flowsift.inject import (InjectionPlan, inject_duplicate, inject_latency,
                             inject_loss, inject_reorder, rank_flows,
                             select_victims)
from flowsift.oracle import oracle_loss, oracle_ooo, oracle_rtt
from flowsift.packets import TypeFilter
from flowsift.synth import SynthConfig, synthesize


@pytest.fixture(scope="module")
def base_trace():
    trace, _ = synthesize(SynthConfig(flows=400, packets=20_000, seed=11,
                                      duration_ns=200_000_000))
    return trace


def victims_of(manifest):
    return [bytes.fromhex(v["key"]) for v in manifest["victims"]]


def test_rank_flows_heaviest_first(base_trace):
    keys, counts = rank_flows(base_trace)
    assert (np.diff(counts) <= 0).all()
    assert len(keys) == 400


def test_select_victims_deterministic(base_trace):
    plan = InjectionPlan("loss", 0.05, victims=10, pool=50, seed=3)
    assert select_victims(base_trace, plan) == select_victims(base_trace, plan)


def test_pool_larger_than_flow_count_rejected(base_trace):
    plan = InjectionPlan("loss", 0.05, victims=10, pool=1000, seed=3)
    with pytest.raises(ValueError, match="pool"):
        select_victims(base_trace, plan)


def test_bad_plans_rejected():
    with pytest.raises(ValueError):
        InjectionPlan("melt", 0.1).validate()
    with pytest.raises(ValueError):
        InjectionPlan("loss", 1.5).validate()
    with pytest.raises(ValueError):
        InjectionPlan("latency", -5).validate()
    with pytest.raises(ValueError):
        InjectionPlan("loss", 0.1, victims=5, pool=3).validate()


def test_latency_single_victim_oracle_delta(base_trace):
    plan = InjectionPlan("latency", 50_000_000, victims=1, pool=10, seed=5)
    out, manifest = inject_latency(base_trace, plan)
    victim = victims_of(manifest)[0]
    tf = TypeFilter.all_pairs()
    before = oracle_rtt(base_trace, tf)
    after = oracle_rtt(out, tf)
    from flowsift.packets import FlowKey, canonicalize
    pair = canonicalize(FlowKey.from_bytes(victim)).to_bytes()
    added = after[pair] - before[pair]
    assert added * 1000 == manifest["victims"][0]["true_value"]


def test_latency_manifest_lists_every_victim(base_trace):
    plan = InjectionPlan("latency", 50_000_000, victims=25, pool=100, seed=6)
    _, manifest = inject_latency(base_trace, plan)
    assert len(manifest["victims"]) == 25
    assert len(set(victims_of(manifest))) == 25


def test_latency_zero_delay_is_identity(base_trace):
    plan = InjectionPlan("latency", 0, victims=10, pool=50, seed=7)
    out, _ = inject_latency(base_trace, plan)
    assert out.sha256() == base_trace.sha256()


def test_latency_range_draw_within_bounds(base_trace):
    plan = InjectionPlan("latency", 30_000_000, magnitude_high=90_000_000,
                         victims=20, pool=50, seed=8)
    _, manifest = inject_latency(base_trace, plan)
    mags = [v["magnitude"] for v in manifest["victims"]]
    assert all(30_000_000 <= m <= 90_000_000 for m in mags)
    assert len(set(mags)) > 1


def test_loss_zero_rate_is_identity(base_trace):
    out, _ = inject_loss(base_trace, InjectionPlan("loss", 0.0, victims=5,
                                                   pool=20, seed=9))
    assert out.sha256() == base_trace.sha256()


def test_loss_counts_within_binomial_band(base_trace):
    plan = InjectionPlan("loss", 0.10, victims=20, pool=40, seed=10)
    out, manifest = inject_loss(base_trace, plan)
    keys, counts = rank_flows(base_trace)
    sizes = {k.tobytes(): int(c) for k, c in zip(keys, counts)}
    for entry in manifest["victims"]:
        n = sizes[bytes.fromhex(entry["key"])]
        sigma = (n * 0.1 * 0.9) ** 0.5
        assert abs(entry["true_value"] - 0.1 * n) <= 3 * sigma + 1
    assert sum(v["true_value"] for v in manifest["victims"]) \
        == len(base_trace) - len(out)


def test_loss_manifest_matches_oracle(base_trace):
    plan = InjectionPlan("loss", 0.08, victims=10, pool=30, seed=11)
    out, manifest = inject_loss(base_trace, plan)
    truth = oracle_loss(out)
    for entry in manifest["victims"]:
        key = bytes.fromhex(entry["key"])
        # ids lost above the surviving max are invisible to the oracle
        assert truth.get(key, 0) <= entry["true_value"]
        assert truth.get(key, 0) >= entry["true_value"] - 3


def test_reorder_zero_rate_is_identity(base_trace):
    out, _ = inject_reorder(base_trace, InjectionPlan("reorder", 0.0,
                                                      victims=5, pool=20, seed=12))
    assert out.sha256() == base_trace.sha256()


def test_reorder_manifest_equals_oracle(base_trace):
    plan = InjectionPlan("reorder", 0.2, victims=10, pool=20, seed=13)
    out, manifest = inject_reorder(base_trace, plan)
    truth = oracle_ooo(out, 3_000_000)
    for entry in manifest["victims"]:
        assert truth.get(bytes.fromhex(entry["key"]), 0) == entry["true_value"]


def test_reorder_moves_packet_behind_successor():
    # dense flow: a 5 ms delay lands sampled packets after higher seqs,
    # so the oracle weight comes out positive
    trace, _ = synthesize(SynthConfig(flows=2, packets=2000, seed=14,
                                      duration_ns=50_000_000,
                                      bidirectional=False))
    plan = InjectionPlan("reorder", 0.3, victims=1, pool=1, seed=14)
    _, manifest = inject_reorder(trace, plan)
    assert manifest["victims"][0]["true_value"] > 0


def test_duplicate_zero_rate_is_identity(base_trace):
    out, _ = inject_duplicate(base_trace, InjectionPlan("duplicate", 0.0,
                                                        victims=5, pool=20, seed=15))
    assert out.sha256() == base_trace.sha256()


def test_duplicate_counts_and_repeats(base_trace):
    plan = InjectionPlan("duplicate", 0.15, victims=15, pool=30, seed=16)
    out, manifest = inject_duplicate(base_trace, plan)
    assert len(out) == len(base_trace) + sum(int(v["true_value"])
                                             for v in manifest["victims"])
    keys, counts = rank_flows(base_trace)
    sizes = {k.tobytes(): int(c) for k, c in zip(keys, counts)}
    for entry in manifest["victims"]:
        n = sizes[bytes.fromhex(entry["key"])]
        sigma = (n * 0.15 * 0.85) ** 0.5
        assert abs(entry["true_value"] - 0.15 * n) <= 3 * sigma + 1


def test_injectors_preserve_non_victim_records(base_trace):
    plan = InjectionPlan("duplicate", 0.5, victims=5, pool=10, seed=17)
    out, manifest = inject_duplicate(base_trace, plan)
    victims = set(victims_of(manifest))
    view = base_trace.key_matrix()
    keep = [i for i in range(len(base_trace))
            if view[i].tobytes() not in victims]
    original = base_trace.arr[keep]
    # every untouched record appears unchanged in the output
    out_set = {out.arr[i].tobytes() for i in range(len(out))}
    assert all(original[i].tobytes() in out_set for i in range(0, len(original), 37))
