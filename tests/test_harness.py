import json

import numpy as np
import pytest

from flowsift import harness
from flowsift.harness import (ConfigError, DataError, DetectorConfig,
                              EvalResult, budget_to_buckets, median_recall,
                              ooo_shape, read_json, run_experiment,
                              sweep_memory, write_csv, write_json,
                              write_reports, _score)
from flowsift.inject import InjectionPlan, inject_latency, inject_loss
from flowsift.latency import LatencyDetector, TypeFilter
from flowsift.loss import LossDetector
from flowsift.packets import PacketType
from flowsift.reporter import BloomGate, CandidateLog, maybe_report
from flowsift.synth import SynthConfig, synthesize
from flowsift.traceio import Trace


@pytest.fixture(scope="module")
def latency_setup():
    trace, _ = synthesize(SynthConfig(flows=800, packets=8000, seed=21,
                                      duration_ns=400_000_000))
    plan = InjectionPlan("latency", 30_000_000, magnitude_high=70_000_000,
                         victims=30, pool=100, seed=21)
    out, manifest = inject_latency(trace, plan)
    return out, manifest


def test_budget_mapping_matches_paper_arithmetic():
    assert budget_to_buckets(40_000, rows=5) == 2000
    assert budget_to_buckets(80_000, rows=5) == 4000
    with pytest.raises(ConfigError):
        budget_to_buckets(10, rows=5)


def test_ooo_shape_fits_budget():
    slots, capacity = ooo_shape(40_000)
    assert slots * 21 + capacity * 29 <= 40_000
    assert capacity & (capacity - 1) == 0


def test_score_rules():
    assert _score([b"a", b"b"], [b"a", b"b"]) == (1.0, 1.0)
    assert _score([], [b"a"]) == (0.0, 0.0)          # precision 0 when empty
    assert _score([b"a"], []) == (0.0, 0.0)


def test_run_experiment_latency_small(latency_setup):
    trace, manifest = latency_setup
    cfg = DetectorConfig("latency", budget_bytes=40_000, seed=1, k=30)
    art = run_experiment(trace, manifest, cfg)
    assert art.result.recall >= 0.9          # tiny flow count: easy instance
    assert 0.0 <= art.result.precision <= 1.0
    assert art.result.memory_bytes == 40_000
    assert art.snapshot is not None


def test_run_experiment_rejects_wrong_manifest(latency_setup):
    trace, manifest = latency_setup
    bad = dict(manifest, trace_sha256="0" * 64)
    with pytest.raises(DataError):
        run_experiment(trace, bad, DetectorConfig("latency", k=10))


def test_unknown_detector_rejected(latency_setup):
    trace, manifest = latency_setup
    with pytest.raises(ConfigError):
        run_experiment(trace, manifest, DetectorConfig("sonar"))


def test_sweep_shape_and_median(latency_setup):
    trace, manifest = latency_setup
    cfg = DetectorConfig("latency", seed=0, k=30)
    results = sweep_memory(trace, manifest, cfg, budgets_kb=(40, 80), seeds=3)
    assert len(results) == 6
    med = median_recall(results)
    assert set(med) == {40_000, 80_000}
    assert all(0 <= v <= 1 for v in med.values())


def test_sweep_rejects_wrong_manifest(latency_setup):
    trace, manifest = latency_setup
    bad = dict(manifest, trace_sha256="0" * 64)
    with pytest.raises(DataError):
        sweep_memory(trace, bad, DetectorConfig("latency", k=10), budgets_kb=(40,), seeds=1)


def test_sweep_hashes_the_trace_once(latency_setup, monkeypatch):
    trace, manifest = latency_setup
    calls = []
    sha256 = Trace.sha256
    monkeypatch.setattr(Trace, "sha256", lambda self: calls.append(1) or sha256(self))
    results = sweep_memory(trace, manifest, DetectorConfig("latency", k=10),
                           budgets_kb=(40, 80), seeds=2)
    assert len(results) == 4
    assert len(calls) == 1


def test_determinism_of_semantic_fields(latency_setup):
    trace, manifest = latency_setup
    cfg = DetectorConfig("latency", budget_bytes=40_000, seed=5, k=30)
    a = run_experiment(trace, manifest, cfg)
    b = run_experiment(trace, manifest, cfg)
    assert a.result.semantic_fields() == b.result.semantic_fields()
    assert a.returned == b.returned
    assert a.candidates.entries == b.candidates.entries


def _reference_candidates(trace, cfg):
    """The gate loop with an exact set of decided folds in front of a
    per-key maybe_report; returns the log entries and the decided count."""
    buckets = budget_to_buckets(cfg.budget_bytes, cfg.rows)
    if cfg.kind == "latency":
        det = LatencyDetector(buckets=buckets, rows=cfg.rows, run_seed=cfg.seed,
                              type_filter=TypeFilter.named(cfg.type_filter),
                              time_unit_ns=cfg.time_unit_ns)
        codes = [int(t) for t in det.type_filter.responses]
    else:
        det = LossDetector(buckets=buckets, rows=cfg.rows, run_seed=cfg.seed)
        codes = [int(PacketType.DATA)]
    gate, log = BloomGate(harness.GATE_BITS, run_seed=cfg.seed), CandidateLog()
    decided = set()
    for lo in range(0, len(trace), harness.CHUNK):
        sub = trace.select(slice(lo, lo + harness.CHUNK))
        admitted, keys, folds = det.observe_batch(sub)
        rows = np.flatnonzero(np.isin(sub.ptype[admitted], codes))
        hot, first = np.unique(folds[rows], return_index=True)
        if len(hot) == 0:
            continue
        estimates = np.abs(det.table.estimate_batch(hot))
        threshold = cfg.report_epsilon * det.table.total_l1 / 2.0
        for fold, row, est in zip(hot.tolist(), rows[first].tolist(), estimates.tolist()):
            if est >= threshold and fold not in decided:
                decided.add(fold)
                maybe_report(gate, log, keys[row].tobytes(), est, threshold,
                             int(sub.ts[-1]))
    return log.entries, len(decided)


@pytest.mark.parametrize("kind", ["latency", "loss"])
def test_gate_loop_matches_decided_set_reference(latency_setup, kind, monkeypatch):
    # a 256-bit gate saturates, so Bloom suppressions are part of the log
    monkeypatch.setattr(harness, "GATE_BITS", 1 << 8)
    monkeypatch.setattr(harness, "CHUNK", 512)
    trace, manifest = latency_setup
    cfg = DetectorConfig(kind, budget_bytes=4_000, seed=3, k=30, type_filter="data",
                         report_epsilon=1e-4)
    entries, decided = _reference_candidates(trace, cfg)
    art = run_experiment(trace, manifest, cfg)
    assert art.candidates.entries == entries
    assert 0 < len(entries) < decided
    assert art.result.extended_memory_bytes == 4_000 + 32


def test_loss_pipeline_end_to_end():
    trace, _ = synthesize(SynthConfig(flows=300, packets=30_000, seed=22))
    out, manifest = inject_loss(trace, InjectionPlan("loss", 0.2, victims=20,
                                                     pool=40, seed=22))
    cfg = DetectorConfig("loss", budget_bytes=40_000, seed=2, k=20,
                         report_epsilon=1e-4)
    art = run_experiment(out, manifest, cfg)
    assert art.result.recall >= 0.7
    assert art.result.fault_magnitude == 0.2


def test_csv_report_columns_and_empty(tmp_path):
    path = tmp_path / "r.csv"
    write_csv([], path)
    header = path.read_text().strip().splitlines()
    assert len(header) == 1
    assert header[0].count(",") == 8          # 9 fixed columns
    row = EvalResult("latency", 40_000, 0.05, 1, 0.9, 0.8, 12.5, 1e6)
    write_csv([row], path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2


def test_json_round_trip(tmp_path):
    rows = [EvalResult("loss", 80_000, 0.04, 3, 0.75, 0.5, 100.0, 5e5)]
    path = tmp_path / "r.json"
    write_json(rows, path)
    back = read_json(path)
    assert back[0].semantic_fields() == rows[0].semantic_fields()
    payload = json.loads(path.read_text())
    assert list(payload[0].keys()) == list(EvalResult.COLUMNS)


def test_json_round_trip_keeps_extended_memory(tmp_path):
    rows = [EvalResult("ooo", 40_000, 0.04, 2, 1.0, 1.0, 3.0, 7e5,
                       extended_memory_bytes=171_234)]
    path = tmp_path / "r.json"
    write_json(rows, path)
    assert json.loads(path.read_text())[0]["extended_memory_bytes"] == 171_234
    assert read_json(path) == rows


def test_write_reports_both_formats(tmp_path):
    rows = [EvalResult("ooo", 40_000, 0.04, 0, 1.0, 1.0, 1.0, 1.0)]
    paths = write_reports(rows, tmp_path, fmt="both", stem="x")
    assert sorted(p.suffix for p in paths) == [".csv", ".json"]
