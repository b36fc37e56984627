import json

import pytest

from flowsift.harness import (ConfigError, DataError, DetectorConfig,
                              EvalResult, budget_to_buckets, median_recall,
                              ooo_shape, read_json, run_experiment,
                              sweep_memory, write_csv, write_json,
                              write_reports, _score)
from flowsift.inject import InjectionPlan, inject_latency, inject_loss
from flowsift.synth import SynthConfig, synthesize


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


def test_determinism_of_semantic_fields(latency_setup):
    trace, manifest = latency_setup
    cfg = DetectorConfig("latency", budget_bytes=40_000, seed=5, k=30)
    a = run_experiment(trace, manifest, cfg)
    b = run_experiment(trace, manifest, cfg)
    assert a.result.semantic_fields() == b.result.semantic_fields()
    assert a.returned == b.returned
    assert a.candidates.entries == b.candidates.entries


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
