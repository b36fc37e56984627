"""The benchmark's tracer wraps flowsift names from outside the package.

``perfbench/tracer.py`` replaces methods through ``cls.__dict__[attr]``
and module functions by identity, so a wrapped name that moves to another
module, or is inherited instead of defined on its class, breaks the
benchmark. Entering a recording fails in that case, and so does this test.
"""

import sys
from pathlib import Path

from flowsift import experiments, harness, hashing, reporter
from flowsift.countsketch import CountSketchTable
from flowsift.inject import INJECTORS, InjectionPlan
from flowsift.latency import LatencyDetector
from flowsift.loss import LossDetector
from flowsift.ooo import OooDetector
from flowsift.retransmit import RetransmitDetector
from flowsift.synth import SynthConfig, synthesize

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402

WRAPPED_METHODS = [
    (LatencyDetector, "observe_batch"), (LatencyDetector, "topk"),
    (LossDetector, "observe_batch"), (LossDetector, "topk"),
    (OooDetector, "observe_trace"), (OooDetector, "topk"),
    (RetransmitDetector, "observe_trace"), (RetransmitDetector, "report"),
    (RetransmitDetector, "_admit"), (LatencyDetector, "__init__"),
    (CountSketchTable, "update_batch"), (CountSketchTable, "estimate_batch"),
    (CountSketchTable, "estimate"),
]


def test_recording_wraps_and_restores_benchmark_names():
    trace, _ = synthesize(SynthConfig(flows=200, packets=2000, seed=5,
                                      duration_ns=200_000_000))
    plan = InjectionPlan("loss", 0.2, victims=10, pool=20, seed=5)
    trace, manifest = INJECTORS[plan.kind](trace, plan)
    methods = {(cls, attr): cls.__dict__[attr] for cls, attr in WRAPPED_METHODS}
    functions = {(module, name): getattr(module, name) for module, name in
                 ((harness, "run_experiment"), (harness, "compute_relevant"),
                  (reporter, "maybe_report"), (reporter, "controller_topk"),
                  (hashing, "bucket_batch"), (hashing, "sign_batch"))}
    tracer = Tracer()
    with tracer.recording("t"):
        for (cls, attr), orig in methods.items():
            assert cls.__dict__[attr] is not orig, (cls.__name__, attr)
        for (module, name), orig in functions.items():
            assert getattr(module, name) is not orig, name
        for kind in ("loss", "latency"):
            harness.run_experiment(trace, manifest, harness.DetectorConfig(kind, k=10))
    for (cls, attr), orig in methods.items():
        assert cls.__dict__[attr] is orig, (cls.__name__, attr)
    for (module, name), orig in functions.items():
        assert getattr(module, name) is orig, name
    for span in ("harness.run", "oracle", "loss.topk", "latency.topk",
                 "hashing.bucket_batch", "countsketch.update_batch"):
        assert tracer.of("t", span), span
    # a gated run prepares its whole trace's sketch input once
    for span in ("loss.observe_batch", "latency.observe_batch"):
        assert len(tracer.of("t", span)) == 1, span
    assert len(tracer.found("t", "CandidateLog")) == 2


def test_traced_retransmit_run_counts_admissions_and_id_batches():
    # the chunk loop must reach _admit and TrackedFlow.add_batch through the
    # class attributes that the tracer replaces
    trace, _ = synthesize(SynthConfig(flows=200, packets=4000, seed=6,
                                      duration_ns=200_000_000))
    plan = InjectionPlan("duplicate", 0.2, victims=10, pool=20, seed=6)
    trace, _ = INJECTORS[plan.kind](trace, plan)
    tracer = Tracer()
    with tracer.recording("t"):
        det = RetransmitDetector(buckets=256, rows=3, epsilon=0.02, run_seed=6)
        det.observe_trace(trace, chunk=256)
    admissions = tracer.calls[("t", "retransmit.admissions")]
    assert admissions >= len(det.tracked) > 0
    assert tracer.calls[("t", "retransmit.distinct_add_batch")] >= admissions


def test_traced_desk_setup_records_synth_and_inject_spans(monkeypatch):
    # the benchmark's synth.s and inject.s come from these spans, which
    # need set-up to call synth.synthesize and the inject_* functions
    monkeypatch.setattr(experiments, "_BASE_SYNTH",
                        SynthConfig(flows=1_000, packets=10_000, duration_ns=200_000_000))
    tracer = Tracer()
    with tracer.recording("setup"):
        for kind in ("latency", "loss", "ooo", "retransmit"):
            experiments.desk_experiment(kind, trace_seed=1)
    assert len(tracer.of("setup", "synth")) == 4
    assert len(tracer.of("setup", "inject")) == 4
