"""Acceptance suite: one test per criterion, desk scale.

Desk scale means 10^5 flows and ~10^6 data packets per epoch. The
detector sweeps (criteria 1-4 and 10) share one cached run per detector
kind: a fixed injected trace, ten detector seeds, four memory budgets.
Run with -s to see the per-criterion summary lines.
"""

import functools
import math
from statistics import median

import numpy as np
from flowsift.countsketch import CountSketchTable
from flowsift.experiments import desk_experiment
from flowsift.framework import FrameworkSketch
from flowsift.harness import run_experiment, sweep_memory
from flowsift.hashing import bucket_of_fold, fold64, fold64_int
from flowsift.ooo import OooDetector
from flowsift.oracle import oracle_ooo
from flowsift.reporter import BloomGate, CandidateLog, ExactGate, maybe_report
from flowsift.retransmit import RetransmitDetector
from flowsift.synth import SynthConfig, synthesize
from flowsift.traceio import Trace

from conftest import data_packet, flow_stream, make_key, random_keys
from test_loss import single_flow_estimate

BUDGETS_KB = (40, 80, 160, 320)
SEEDS = 10


def report_line(criterion: str, detail: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"{criterion}: {detail}"


@functools.lru_cache(maxsize=None)
def sweep(kind: str):
    trace, manifest, cfg = desk_experiment(kind, trace_seed=0, detector_seed=0)
    return sweep_memory(trace, manifest, cfg, BUDGETS_KB, SEEDS)


def medians(kind: str, field: str = "recall") -> dict[int, float]:
    rows = sweep(kind)
    out: dict[int, list[float]] = {}
    for r in rows:
        out.setdefault(r.memory_bytes // 1000, []).append(getattr(r, field))
    return {b: median(v) for b, v in sorted(out.items())}


def test_criterion_01_latency_recall():
    med = medians("latency")
    detail = (f"latency median recall 40kB={med[40]:.3f} (>=0.80), "
              f"160kB={med[160]:.3f} (>=0.90)")
    report_line("1 latency-recall", detail, med[40] >= 0.80 and med[160] >= 0.90)


def test_criterion_02_loss_recall():
    med = medians("loss")
    detail = (f"loss median recall 40kB={med[40]:.3f} (>=0.6), "
              f"320kB={med[320]:.3f} (>=0.9)")
    report_line("2 loss-recall", detail, med[40] >= 0.6 and med[320] >= 0.9)


def test_criterion_03_ooo_recall_precision():
    rec = medians("ooo")[40]
    prec = medians("ooo", "precision")[40]
    detail = f"ooo 40kB median recall={rec:.3f} (>=0.9), precision={prec:.3f} (>=0.85)"
    report_line("3 out-of-order", detail, rec >= 0.9 and prec >= 0.85)


def test_criterion_04_retransmit_recall():
    med = medians("retransmit")
    detail = f"retransmit median recall 40kB={med[40]:.3f} (>=0.9)"
    report_line("4 retransmission", detail, med[40] >= 0.9)


def test_criterion_05_random_walk_law():
    target = math.sqrt(2 * 2000 / math.pi)
    walks = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        kept = np.setdiff1d(np.arange(1, 20_001),
                            rng.choice(np.arange(1, 20_001), 2000, replace=False))
        walks.append(abs(single_flow_estimate(kept, seed=seed)))
    med = float(np.median(walks))
    lossless_ok = all(
        abs(single_flow_estimate(range(1, 20_001), seed=seed)) <= 1
        for seed in range(100))
    detail = (f"median walk {med:.1f} in [{target*0.75:.1f}, {target*1.25:.1f}]; "
              f"lossless |estimate|<=1 in 100/100 seeds: {lossless_ok}")
    report_line("5 random-walk-law", detail,
                target * 0.75 <= med <= target * 1.25 and lossless_ok)


def test_criterion_06_countsketch_contract():
    n_flows, updates = 10_000, 100_000
    within = total = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        keys = random_keys(rng, n_flows)
        idx = np.minimum(rng.zipf(1.1, updates) - 1, n_flows - 1)
        truth = np.bincount(idx, minlength=n_flows)
        table = CountSketchTable(5, 2000, run_seed=seed + 1)
        folds = np.array([fold64(k) for k in keys], dtype=np.uint64)
        table.update_batch(folds[idx], np.ones(updates, dtype=np.int64))
        bound = table.epsilon * np.sqrt((truth.astype(float) ** 2).sum())
        within += int((np.abs(table.estimate_batch(folds) - truth) <= bound).sum())
        total += n_flows
    fraction = within / total

    # merge-linearity: split stream equals whole stream, exactly
    rng = np.random.default_rng(99)
    keys = random_keys(rng, 500)
    whole = CountSketchTable(5, 256, run_seed=7)
    a = CountSketchTable(5, 256, run_seed=7)
    b = CountSketchTable(5, 256, run_seed=7)
    for i, key in enumerate(keys):
        whole.update(key, i + 1)
        (a if i % 2 else b).update(key, i + 1)
    a.merge(b)
    linear = (a.counters == whole.counters).all() and a.total_l1 == whole.total_l1
    detail = (f"within eps*l2 for {fraction:.4f} of flows (>=0.95); "
              f"merge-linearity exact: {bool(linear)}")
    report_line("6 countsketch-contract", detail, fraction >= 0.95 and linear)


def test_criterion_07_misra_gries_determinism():
    failures = drops = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        det = OooDetector(slots=8, cache_capacity=1 << 16, weight_mode="packets")
        records = []
        for fi in range(int(rng.integers(10, 50))):
            key = make_key(fi)
            n = int(rng.integers(3, 80))
            seqs = list(range(1, n + 1))
            for j in rng.integers(1, n, size=int(rng.integers(0, n // 2 + 1))):
                seqs.insert(int(j), 1)
            base = int(rng.integers(0, 2000)) * 1000
            records += [data_packet(key, s, base + 400 * i, 1)
                        for i, s in enumerate(seqs)]
        records.sort(key=lambda p: p.ts)
        trace = Trace.from_records(records)
        det.observe_trace(trace)
        drops += det.cache.dropped
        truth = oracle_ooo(trace, det.window_ns, "packets")
        total = sum(truth.values())
        slots = {k for k, _ in det.table.occupied()}
        for key, w in truth.items():
            if w > det.epsilon * total and key not in slots:
                failures += 1
    report_line("7 misra-gries-determinism",
                f"retention failures over 100 fuzzed traces: {failures} (==0), "
                f"cache drops: {drops} (==0)",
                failures == 0 and drops == 0)


def test_criterion_08_framework_recovery():
    hits = 0
    exact_violations = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sketch = FrameworkSketch(64, 16, run_seed=seed)
        planted = int(rng.integers(0, 1 << 16))
        ids = np.concatenate([rng.integers(0, 1 << 16, 500), np.full(5000, planted)])
        sketch.update(ids, np.ones(len(ids), dtype=np.int64))
        recovered = {r.bucket: r.flow_id for r in sketch.recover_detailed()}
        if planted in recovered.values():
            hits += 1
        by_bucket: dict[int, dict[int, int]] = {}
        for fid, c in zip(*np.unique(ids, return_counts=True)):
            bucket = bucket_of_fold(sketch.bucket_hash, fold64_int(int(fid)), sketch.buckets)
            by_bucket.setdefault(bucket, {})[int(fid)] = int(c)
        for bucket, flows in by_bucket.items():
            top_id, top = max(flows.items(), key=lambda kv: kv[1])
            if top > sum(flows.values()) - top and recovered.get(bucket) != top_id:
                exact_violations += 1
    detail = (f"planted recovered in {hits}/50 seeds (>=45); "
              f"dominance-exactness violations: {exact_violations} (==0)")
    report_line("8 framework-recovery", detail,
                hits >= 45 and exact_violations == 0)


def test_criterion_09_retransmit_separation():
    k_thr = 32.0
    reported_hits = 0
    clean_misses = 0
    for seed in range(20):
        heavy_dup = make_key(0)
        clean = make_key(1)
        packets = []
        packets += flow_stream(heavy_dup,
                               [s for s in range(1, 101) for _ in range(32)],
                               start_ts=0, gap_ns=500)
        packets += flow_stream(clean, range(1, 3201), start_ts=250, gap_ns=500)
        packets.sort(key=lambda p: p.ts)
        det = RetransmitDetector(buckets=2000, rows=5, epsilon=0.2, run_seed=seed)
        det.observe_trace(Trace.from_records(packets), chunk=1)
        reported = det.report(k_thr).keys()
        if heavy_dup.to_bytes() in reported:
            reported_hits += 1
        if clean.to_bytes() not in reported:
            clean_misses += 1
    detail = (f"avg-32 flow reported in {reported_hits}/20 (>=18); "
              f"avg-1 flow unreported in {clean_misses}/20 (>=18)")
    report_line("9 retransmit-separation", detail,
                reported_hits >= 18 and clean_misses >= 18)


def test_criterion_10_memory_monotonicity():
    ok = True
    details = []
    for kind in ("latency", "loss", "ooo", "retransmit"):
        med = medians(kind)
        series = [med[b] for b in BUDGETS_KB]
        monotone = all(a <= b + 1e-12 for a, b in zip(series, series[1:]))
        ok &= monotone
        details.append(f"{kind}={['%.3f' % v for v in series]}")
    report_line("10 memory-monotonicity", "; ".join(details), ok)


def test_criterion_11_reporter_differential():
    rng = np.random.default_rng(4)
    keys = random_keys(rng, 104_000)
    bloom = BloomGate(run_seed=11)           # spec defaults: 2^16 bits, 4 hashes
    exact = ExactGate()
    blog, elog = CandidateLog(), CandidateLog()
    suppressed = set()
    for key in keys[:4000]:
        got = maybe_report(bloom, blog, key, 1.0, 0.0)
        maybe_report(exact, elog, key, 1.0, 0.0)
        if not got:
            suppressed.add(key)
    diff_ok = set(elog.keys()) - set(blog.keys()) == suppressed
    fp = sum(1 for key in keys[4000:] if key in bloom) / 100_000
    detail = (f"log difference == measured suppressions: {diff_ok}; "
              f"fresh-key FP rate {fp:.4f} (<=0.01)")
    report_line("11 reporter-differential", detail, diff_ok and fp <= 0.01)


def test_criterion_12_determinism():
    cfg = SynthConfig(flows=100_000, packets=1_000_000, seed=5)
    sha_a = synthesize(cfg)[1]["trace_sha256"]
    sha_b = synthesize(cfg)[1]["trace_sha256"]
    trace, manifest, det_cfg = desk_experiment("latency", trace_seed=3,
                                               detector_seed=3)
    row_a = run_experiment(trace, manifest, det_cfg)
    row_b = run_experiment(trace, manifest, det_cfg)
    same_rows = (row_a.result.semantic_fields() == row_b.result.semantic_fields()
                 and row_a.returned == row_b.returned)
    detail = (f"trace bytes identical: {sha_a == sha_b}; "
              f"EvalResult rows identical: {same_rows}")
    report_line("12 determinism", detail, sha_a == sha_b and same_rows)
