"""Set-up outputs pinned as sha256 literals.

One small synthetic epoch, each injector's output trace and manifest on
it, and each detector kind's relevant set. Every sort in the set-up path
(time order, flow grouping, pair grouping, victim ranking) feeds these
bytes, so a sort change that moves one byte fails here. The epoch is
10 ms long, so 115 of its 46,912 records tie on timestamp and the tie
order is pinned too.
"""

import hashlib
import json

import pytest

from flowsift.harness import DetectorConfig, compute_relevant
from flowsift.inject import INJECTORS, InjectionPlan
from flowsift.synth import SynthConfig, synthesize

SYNTH = SynthConfig(flows=2_000, packets=20_000, duration_ns=10_000_000, seed=5)
SYNTH_SHA = "c07f757e646baf5f05780855186d37986b8d5488fa9b59f0dc89a4bf1b1a7c4a"

PLANS = {
    "latency": InjectionPlan("latency", 1_000_000, magnitude_high=3_000_000,
                             victims=10, pool=50, seed=5),
    "loss": InjectionPlan("loss", 0.1, victims=10, pool=50, seed=5),
    "reorder": InjectionPlan("reorder", 0.1, victims=10, pool=50, seed=5),
    "duplicate": InjectionPlan("duplicate", 0.1, victims=10, pool=50, seed=5),
}
# fault kind -> detector kind scored on its trace, and the pinned digests:
# (trace sha256, sha256 of the sorted-key JSON manifest, sha256 of the
# concatenated relevant keys)
PINNED = {
    "latency": ("latency",
                "3bf386e56126b44d03ed2184eb7bcb36121b2e20bf4eb079c340b1815270c475",
                "8651b8396e0579edeb05d739f7eba6c38acdd0c034240bcea4411c9e89fe207d",
                "ad7fca8041d7b27573948a145590831cac5b4f617b9361e2de0ad2ef2b0a3909"),
    "loss": ("loss",
             "40d097017ad287147af94152e044774a9aeacec24b88d019b295ffc293c11b83",
             "e608a162c19bedc50562be5ad903271fef9eba2053a01bd58d5ad8a2d8e6f7fd",
             "610dc35813a2f74624583f4dc16876c2cb0e93d665d3867b06008b5e7281f6fc"),
    "reorder": ("ooo",
                "4468b333e7a66b0b5a81e189be4428937100a443c73eaad9afcaafeff18f0be9",
                "d6654972867cd1d23f874eaa2f22c7cb3ce5c862a4b468d2c18ebc6a64d3af12",
                "f157c2fb87a7a45ccaee12f9a3ef72cd0a632e6f4450b4c5f062edc71a020dcd"),
    "duplicate": ("retransmit",
                  "c102c217f9eecaf3836673dc16c6eeb2a242dff353e0f328c9f993dded3b58f4",
                  "7d46feab2f12e59234e95f95d736710a9dda0fabb628da97359916c452bdb837",
                  "0bda09cd7931fddf1ca435a53b239eac38bfe298225265511d55d69957a33f66"),
}


@pytest.fixture(scope="module")
def base():
    return synthesize(SYNTH)


def test_synthesized_trace_is_pinned(base):
    trace, manifest = base
    assert trace.sha256() == manifest["trace_sha256"] == SYNTH_SHA


@pytest.mark.parametrize("fault", sorted(PLANS))
def test_injected_trace_manifest_and_relevant_set_are_pinned(base, fault):
    kind, trace_sha, manifest_sha, relevant_sha = PINNED[fault]
    trace, manifest = INJECTORS[fault](base[0], PLANS[fault])
    relevant = compute_relevant(trace, DetectorConfig(kind, k=20), 20)
    assert trace.sha256() == trace_sha
    assert hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest() \
        == manifest_sha
    assert hashlib.sha256(b"".join(relevant)).hexdigest() == relevant_sha
