import numpy as np
import pytest

from flowsift.packets import PacketType
from flowsift.synth import SynthConfig, synthesize, synthesize_to_file, zipf_sizes
from flowsift.traceio import read_trace


def test_single_flow_sequences_and_monotone_time():
    cfg = SynthConfig(flows=1, packets=10, bidirectional=False, seed=1)
    trace, manifest = synthesize(cfg)
    data = trace.select(trace.ptype == int(PacketType.DATA))
    order = np.argsort(data.ts, kind="stable")
    assert sorted(data.seq.tolist()) == list(range(1, len(data) + 1))
    assert (np.diff(trace.ts.astype(np.int64)) >= 0).all()
    assert manifest["data_packets"] == len(data)


def test_zipf_head_share_in_expected_band():
    sizes = zipf_sizes(10_000, 1_000_000, 1.1, even=True)
    share = sizes[0] / sizes.sum()
    assert 0.01 <= share <= 0.20


def test_even_rounding_default_and_opt_out():
    even = zipf_sizes(1000, 20_000, 1.1, even=True)
    assert not (even % 2).any()
    raw = zipf_sizes(1000, 20_000, 1.1, even=False)
    assert (raw % 2).any()


def test_identical_config_gives_identical_bytes(tmp_path):
    cfg = SynthConfig(flows=500, packets=5000, seed=77)
    a = tmp_path / "a.lmt"
    b = tmp_path / "b.lmt"
    ma = synthesize_to_file(cfg, a)
    mb = synthesize_to_file(cfg, b)
    assert a.read_bytes() == b.read_bytes()
    assert ma["trace_sha256"] == mb["trace_sha256"]


def test_different_seed_differs(tmp_path):
    t1, m1 = synthesize(SynthConfig(flows=100, packets=1000, seed=1))
    t2, m2 = synthesize(SynthConfig(flows=100, packets=1000, seed=2))
    assert m1["trace_sha256"] != m2["trace_sha256"]


def test_infeasible_config_rejected():
    with pytest.raises(ValueError):
        synthesize(SynthConfig(flows=100, packets=50))
    with pytest.raises(ValueError):
        synthesize(SynthConfig(flows=0, packets=50))


def test_bidirectional_pairs_ack_per_data():
    cfg = SynthConfig(flows=20, packets=400, seed=3)
    trace, _ = synthesize(cfg)
    n_data = int((trace.ptype == int(PacketType.DATA)).sum())
    assert int((trace.ptype == int(PacketType.ACK)).sum()) == n_data
    assert int((trace.ptype == int(PacketType.SYN)).sum()) == 20
    assert int((trace.ptype == int(PacketType.SYNACK)).sum()) == 20


def test_manifest_matches_written_file(tmp_path):
    path = tmp_path / "t.lmt"
    manifest = synthesize_to_file(SynthConfig(flows=50, packets=600, seed=5), path)
    assert read_trace(path).sha256() == manifest["trace_sha256"]


# The branches tests/test_setup_digests.py's epoch does not take, pinned as
# sha256 literals: a DATA-only epoch, and odd flow sizes.
BRANCH_PINS = [
    (SynthConfig(flows=2_000, packets=20_000, duration_ns=10_000_000,
                 bidirectional=False, seed=5),
     21_456, "95149911f3a2775208766ed04d74ec3992225f0c07ee2825fc19fbee2a8af965"),
    (SynthConfig(flows=2_000, packets=20_001, duration_ns=10_000_000,
                 even_flow_sizes=False, seed=5),
     44_002, "86d9fa885447fea9a77ec2da7886976a3fa67150edb51b847fc60376e6f9620c"),
]


@pytest.mark.parametrize("cfg,records,sha", BRANCH_PINS, ids=["data-only", "odd-sizes"])
def test_synthesis_branches_are_pinned(cfg, records, sha):
    trace, manifest = synthesize(cfg)
    assert len(trace) == manifest["records"] == records
    assert trace.sha256() == manifest["trace_sha256"] == sha
