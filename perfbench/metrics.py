"""Metric definitions: the end-to-end set and the traced per-layer set.

``PER_LAYER`` records, for every per-layer metric, the end-to-end metric
and workload it should move; BENCHMARK.json carries only name, unit and
direction, and the smoke test checks that it matches this table.

Per-layer values come from one traced pass over the workload's parts
(run id ``detect``, summed over the parts) or the traced set-up (run id
``setup``). Layers a workload never enters read 0. Only ``harness.self_s`` and ``framework.cli_self_s`` are
computed by subtraction (span time minus the time its children cover).
"""

from __future__ import annotations

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("recall", "share", "higher"),
    ("precision", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

S, D, C = "setup", "detect", "check"

ALL = "every workload"
RATE = "records_per_s"


def _found(t, cls: str) -> list:
    return t.found(D, cls)


def _headroom_bits(t) -> int:
    tables = _found(t, "CountSketchTable")
    peak = max((int(abs(table.counters).max(initial=0)) for table in tables), default=0)
    return 63 - peak.bit_length()


def _gate_fp_pred(t) -> float:
    # a lookup of an absent key passes when all its positions are set:
    # fill ** hashes, from the bit array the run left behind
    gates = _found(t, "BloomGate")
    return max((float(g.array.mean()) ** len(g._pairs) for g in gates), default=0.0)


def _absorbed_share(t, ctxs) -> float:
    detectors = _found(t, "OooDetector")
    if not detectors:
        return 0.0
    from flowsift.oracle import oracle_ooo
    ctx = ctxs["ooo"]
    cfg = ctx["cfg"]
    truth = sum(oracle_ooo(ctx["trace"], cfg.window_ns, cfg.weight_mode).values())
    return sum(d.table.total_weight for d in detectors) / truth if truth else 0.0


PER_LAYER = (
    # name, unit, better, (end-to-end metric it should move, workload), value(tracer, ctxs)
    ("synth.s", "s", "lower", ("setup_s", ALL), lambda t, c: t.span_s(S, "synth")),
    ("inject.s", "s", "lower", ("setup_s", ALL), lambda t, c: t.span_s(S, "inject")),
    ("oracle.s", "s", "lower", ("setup_s", ALL), lambda t, c: t.span_s(S, "oracle")),
    ("traceio.load_s", "s", "lower", ("setup_s", ALL),
     lambda t, c: t.span_s(S, "traceio.load")),
    ("traceio.write_s", "s", "lower", ("setup_s", ALL),
     lambda t, c: t.span_s(S, "traceio.write")),

    ("harness.run_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "harness.run")),
    ("harness.self_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.self_s(D, "harness.run")),

    ("traceio.key_matrix_calls", "count", "lower", (RATE, ALL),
     lambda t, c: len(t.of(D, "traceio.key_matrix"))),
    ("traceio.key_matrix_s", "s", "lower", (RATE, ALL),
     lambda t, c: t.span_s(D, "traceio.key_matrix")),
    ("traceio.canonical_matrix_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "traceio.canonical_matrix")),
    ("hashing.fold64_matrix_s", "s", "lower", (RATE, ALL),
     lambda t, c: t.span_s(D, "hashing.fold64_matrix")),
    ("hashing.fold64_matrix_rows", "count", "lower", (RATE, ALL),
     lambda t, c: t.size(D, "hashing.fold64_matrix")),
    ("hashing.bucket_batch_s", "s", "lower", (RATE, ALL),
     lambda t, c: t.span_s(D, "hashing.bucket_batch")),
    ("hashing.sign_batch_s", "s", "lower", (RATE, ALL),
     lambda t, c: t.span_s(D, "hashing.sign_batch")),
    ("hashing.fold64_calls", "count", "lower", (RATE, "desk-ooo and mixed"),
     lambda t, c: t.calls[(D, "hashing.fold64")]),
    ("hashing.bucket_of_fold_calls", "count", "lower", (RATE, "desk-ooo and mixed"),
     lambda t, c: t.calls[(D, "hashing.bucket_of_fold")]),

    ("countsketch.update_batch_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "countsketch.update_batch")),
    ("countsketch.update_batch_rows", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.size(D, "countsketch.update_batch")),
    ("countsketch.estimate_batch_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "countsketch.estimate_batch")),
    ("countsketch.estimate_batch_keys", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.size(D, "countsketch.estimate_batch")),
    ("countsketch.estimate_calls", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "countsketch.estimate")]),
    ("countsketch.estimate_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.seconds[(D, "countsketch.estimate")]),
    ("countsketch.signed_magnitudes_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "countsketch.signed_magnitudes")),
    ("countsketch.headroom_bits", "bits", "higher", ("none: overflow guard", ALL),
     lambda t, c: _headroom_bits(t)),

    ("reporter.maybe_report_calls", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "reporter.maybe_report")]),
    ("reporter.maybe_report_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.seconds[(D, "reporter.maybe_report")]),
    ("reporter.gate_inserts", "count", "lower", (RATE, "mixed"),
     lambda t, c: sum(g.inserted for g in _found(t, "BloomGate"))),
    ("reporter.gate_suppressed", "count", "lower", ("recall", "mixed"),
     lambda t, c: t.calls[(D, "reporter.gate_suppressed")]),
    ("reporter.gate_fp_pred", "share", "lower", ("recall", "mixed"),
     lambda t, c: _gate_fp_pred(t)),
    ("reporter.candidates", "count", "lower", (RATE, "mixed"),
     lambda t, c: sum(len(log) for log in _found(t, "CandidateLog"))),
    ("reporter.controller_topk_s", "s", "lower", ("none: controller re-rank", "mixed"),
     lambda t, c: t.span_s(C, "reporter.controller_topk")),

    ("latency.observe_batch_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "latency.observe_batch")),
    ("latency.skipped", "count", "higher", (RATE, "mixed"),
     lambda t, c: sum(d.skipped for d in _found(t, "LatencyDetector"))),
    ("latency.topk_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "latency.topk")),
    ("loss.observe_batch_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "loss.observe_batch")),
    ("loss.topk_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "loss.topk")),

    ("ooo.observe_trace_s", "s", "lower", (RATE, "desk-ooo"),
     lambda t, c: t.span_s(D, "ooo.observe_trace")),
    ("ooo.absorb_calls", "count", "lower", (RATE, "desk-ooo"),
     lambda t, c: t.calls[(D, "ooo.absorb")]),
    ("ooo.cache_dropped", "count", "lower", (RATE, "desk-ooo"),
     lambda t, c: sum(cache.dropped for cache in _found(t, "RecencyCache"))),
    ("ooo.cache_live_end", "count", "lower", (RATE, "desk-ooo"),
     lambda t, c: sum(len(cache) for cache in _found(t, "RecencyCache"))),
    ("ooo.topk_s", "s", "lower", (RATE, "desk-ooo"),
     lambda t, c: t.span_s(D, "ooo.topk")),
    ("ooo.absorbed_share", "share", "higher", ("recall", "desk-ooo"), _absorbed_share),

    ("retransmit.observe_trace_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "retransmit.observe_trace")),
    ("retransmit.admissions", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "retransmit.admissions")]),
    ("retransmit.evictions", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "retransmit.evictions")]),
    ("retransmit.tracked_end", "count", "lower", (RATE, "mixed"),
     lambda t, c: sum(len(d.tracked) for d in _found(t, "RetransmitDetector"))),
    ("retransmit.distinct_add_batch_calls", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "retransmit.distinct_add_batch")]),
    ("retransmit.report_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "retransmit.report")),

    ("framework.update_calls", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "framework.update")]),
    ("framework.update_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.seconds[(D, "framework.update")]),
    ("framework.flow_id32_calls", "count", "lower", (RATE, "mixed"),
     lambda t, c: t.calls[(D, "framework.flow_id32")]),
    ("framework.recover_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.span_s(D, "framework.recover")),
    ("framework.cli_self_s", "s", "lower", (RATE, "mixed"),
     lambda t, c: t.self_s(D, "cli.main")),
)

# Traced operation wall time / median untraced operation wall time,
# computed by the runner (it needs both runs).
OVERHEAD = ("tracing.overhead", "ratio", "lower", ("none: cost of tracing", ALL))


def per_layer(tracer, ctxs) -> dict:
    """Every per-layer metric except tracing.overhead, by name."""
    return {name: (value(tracer, ctxs), unit) for name, unit, _, _, value in PER_LAYER}
