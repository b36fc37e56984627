"""Desk-scale experiment presets: one place for the tuned knobs.

Each preset synthesizes a 10^5-flow / ~10^6-packet epoch, injects one
fault class into 100 heavy victims, and returns (trace, manifest,
detector config) ready for the harness. The mirroring-trigger epsilons
are calibrated to keep the candidate logs in the tens of thousands:
small enough that sketch-collision impostors stay rare, large enough
that every victim crosses the threshold.
"""

from __future__ import annotations

from dataclasses import replace

from .harness import DetectorConfig
from .inject import INJECTORS, InjectionPlan
from .synth import SynthConfig, synthesize
from .traceio import Trace

DESK_FLOWS = 100_000
DESK_PACKETS = 1_000_000
LATENCY_DELAY_NS = 50_000_000
LOSS_RATE = 0.04
REORDER_RATE = 0.04
DUPLICATE_RATE = 0.10

_BASE_SYNTH = SynthConfig(flows=DESK_FLOWS, packets=DESK_PACKETS)

_PLANS = {
    # per-flow delay draw with 50 ms mean; a fixed delay would make
    # victims and sketch-collision impostors exact value ties
    "latency": InjectionPlan("latency", LATENCY_DELAY_NS - 20_000_000,
                             magnitude_high=LATENCY_DELAY_NS + 20_000_000,
                             victims=100, pool=1000),
    # pool = the heaviest 100: at this packet budget, lighter flows lose
    # too few packets for the random-walk signal to clear its own variance
    "loss": InjectionPlan("loss", LOSS_RATE, victims=100, pool=100),
    "ooo": InjectionPlan("reorder", REORDER_RATE, victims=100, pool=100),
    "retransmit": InjectionPlan("duplicate", DUPLICATE_RATE, victims=100, pool=100),
}

_CONFIGS = {
    "latency": DetectorConfig("latency", report_epsilon=4e-7, type_filter="syn"),
    "loss": DetectorConfig("loss", report_epsilon=1e-5),
    "ooo": DetectorConfig("ooo"),
    "retransmit": DetectorConfig("retransmit", epsilon=0.001, k_threshold=1.05),
}


def desk_experiment(kind: str, trace_seed: int = 0,
                    detector_seed: int = 0) -> tuple[Trace, dict, DetectorConfig]:
    """Synthesize, inject, and configure one desk-scale experiment."""
    if kind not in _PLANS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    base, _ = synthesize(replace(_BASE_SYNTH, seed=trace_seed))
    plan = replace(_PLANS[kind], seed=trace_seed)
    trace, manifest = INJECTORS[plan.kind](base, plan)
    cfg = replace(_CONFIGS[kind], seed=detector_seed)
    return trace, manifest, cfg
