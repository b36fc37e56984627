import json

import numpy as np
import pytest

from flowsift import harness, reporter
from flowsift.harness import (ConfigError, DataError, DetectorConfig,
                              EvalResult, compute_relevant, median_recall, read_json,
                              run_experiment, sweep_memory, write_csv, write_json,
                              write_reports, _score)
from flowsift.inject import INJECTORS, InjectionPlan, inject_latency, inject_loss
from flowsift.latency import LatencyDetector
from flowsift.loss import LossDetector
from flowsift.ooo import OooDetector, ooo_shape
from flowsift.packets import PacketType, TypeFilter
from flowsift.reporter import BloomGate, CandidateLog, controller_topk, maybe_report
from flowsift.reports import HeavyReport
from flowsift.synth import SynthConfig, synthesize
from flowsift.traceio import Trace

from conftest import flow_stream, make_key


@pytest.fixture(scope="module")
def base_trace():
    trace, _ = synthesize(SynthConfig(flows=800, packets=8000, seed=21,
                                      duration_ns=400_000_000))
    return trace


@pytest.fixture(scope="module")
def latency_setup(base_trace):
    plan = InjectionPlan("latency", 30_000_000, magnitude_high=70_000_000,
                         victims=30, pool=100, seed=21)
    return inject_latency(base_trace, plan)


def test_budget_mapping_matches_paper_arithmetic():
    assert DetectorConfig("latency", budget_bytes=40_000, rows=5).buckets == 2000
    assert DetectorConfig("latency", budget_bytes=80_000, rows=5).buckets == 4000
    with pytest.raises(ConfigError):
        DetectorConfig("latency", budget_bytes=10, rows=5).validate()


@pytest.mark.parametrize("overrides", [{"rows": 0}, {"rows": -1}, {"cache_capacity": 0},
                                       {"cache_capacity": 1}, {"ooo_slots": 0},
                                       {"cache_capacity": 5},     # odd: last slots unusable
                                       {"cache_capacity": 2},     # fewer slots than stages
                                       {"cache_capacity": 6}])    # not a multiple of 4
def test_size_overrides_below_their_minimum_are_config_errors(overrides):
    with pytest.raises(ConfigError):
        DetectorConfig("ooo", **overrides).validate()


def test_ooo_size_overrides_are_taken_as_given():
    det = OooDetector.from_config(DetectorConfig("ooo", ooo_slots=3, cache_capacity=4))
    assert (det.slots, det.cache_capacity) == (3, 4)


def test_ooo_shape_fits_budget():
    slots, capacity = ooo_shape(40_000)
    assert slots * 21 + capacity * 29 <= 40_000
    assert capacity & (capacity - 1) == 0


def test_score_rules():
    assert _score([b"a", b"b"], [b"a", b"b"]) == (1.0, 1.0)
    assert _score([], [b"a"]) == (0.0, 0.0)          # precision 0 when empty
    assert _score([b"a"], []) == (0.0, 0.0)


def test_retransmit_relevant_set_ranks_by_average_retransmissions():
    # averages: 0 -> 2.0, 1 -> 1.0 (no retransmission), 2 -> 4/3, 3 -> 2.0
    seqs = {0: [1, 1, 2, 2], 1: [1, 2, 3], 2: [1, 1, 2, 3], 3: [1, 2, 1, 2]}
    records = [p for i, s in seqs.items() for p in flow_stream(make_key(i), s)]
    trace = Trace.from_records(records)
    key = {i: make_key(i).to_bytes() for i in seqs}
    tied = sorted([key[0], key[3]])
    assert compute_relevant(trace, DetectorConfig("retransmit"), 10) == [*tied, key[2]]
    assert compute_relevant(trace, DetectorConfig("retransmit"), 1) == tied[:1]


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


def test_kept_digest_still_rejects_wrong_manifest(latency_setup):
    trace, manifest = latency_setup
    run_experiment(trace, manifest, DetectorConfig("latency", k=10))
    bad = dict(manifest, trace_sha256="0" * 64)
    with pytest.raises(DataError):
        run_experiment(trace, bad, DetectorConfig("latency", k=10))


def test_unknown_detector_rejected(latency_setup):
    trace, manifest = latency_setup
    cfg = DetectorConfig("sonar")
    for call in (lambda: run_experiment(trace, manifest, cfg),
                 lambda: compute_relevant(trace, cfg, 10),
                 lambda: sweep_memory(trace, manifest, cfg, budgets_kb=(40,), seeds=1)):
        with pytest.raises(ConfigError):
            call()


class StubDetector:
    """A kind the harness has no code for: its oracle ranks flows 0, 2, 1,
    and it reports flows 0 and 1."""

    KEYS = np.frombuffer(b"".join(make_key(i).to_bytes() for i in range(3)), dtype="V13")

    @classmethod
    def from_config(cls, cfg):
        return cls()

    @staticmethod
    def oracle(trace, cfg):
        return StubDetector.KEYS, np.array([3, 1, 2])

    def run(self, trace, k):
        return HeavyReport([(key, 1.0) for key in self.KEYS[:2].tolist()])

    def controller_inputs(self):
        return None, None

    def memory_bytes(self):
        return 7


def test_new_kind_needs_no_harness_edit(latency_setup, monkeypatch):
    monkeypatch.setitem(harness.DETECTORS, "stub", StubDetector)
    trace, manifest = latency_setup
    art = run_experiment(trace, manifest, DetectorConfig("stub"), k=2)
    key = [make_key(i).to_bytes() for i in range(3)]
    assert art.relevant == [key[0], key[2]]
    assert art.returned == [key[0], key[1]]
    assert (art.result.recall, art.result.precision) == (0.5, 0.5)
    assert art.result.extended_memory_bytes == 7


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
    trace = Trace(trace.arr)        # the injector's own trace already holds its digest
    calls = []
    digest = Trace._digest
    monkeypatch.setattr(Trace, "_digest", lambda self: calls.append(1) or digest(self))
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
    per-key maybe_report, each chunk prepared on its own; returns the log
    entries and the decided count."""
    if cfg.kind == "latency":
        det = LatencyDetector(buckets=cfg.buckets, rows=cfg.rows, run_seed=cfg.seed,
                              type_filter=TypeFilter.named(cfg.type_filter),
                              time_unit_ns=cfg.time_unit_ns)
        codes = [int(t) for t in det.type_filter.responses]
    else:
        det = LossDetector(buckets=cfg.buckets, rows=cfg.rows, run_seed=cfg.seed)
        codes = [int(PacketType.DATA)]
    gate, log = BloomGate(reporter.GATE_BITS, run_seed=cfg.seed), CandidateLog()
    decided = set()
    for lo in range(0, len(trace), reporter.CHUNK):
        sub = trace.select(slice(lo, lo + reporter.CHUNK))
        fed = det.observe_batch(sub)
        det.table.update_batch(fed.folds, fed.deltas)
        rows = np.flatnonzero(np.isin(sub.ptype[fed.rows], codes))
        hot, first = np.unique(fed.folds[rows], return_index=True)
        if len(hot) == 0:
            continue
        estimates = np.abs(det.table.estimate_batch(hot))
        threshold = cfg.report_epsilon * det.table.total_l1 / 2.0
        for fold, row, est in zip(hot.tolist(), rows[first].tolist(), estimates.tolist()):
            if est >= threshold and fold not in decided:
                decided.add(fold)
                maybe_report(gate, log, fed.keys[row].tobytes(), est, threshold,
                             int(sub.ts[-1]))
    return log.entries, len(decided)


# under the syn filter the last 512-record chunk holds no admitted record
@pytest.mark.parametrize("kind,type_filter", [
    pytest.param("latency", "data", id="latency"), pytest.param("loss", "data", id="loss"),
    pytest.param("latency", "syn", id="latency-syn")])
def test_gate_loop_matches_decided_set_reference(latency_setup, kind, type_filter,
                                                 monkeypatch):
    # a 256-bit gate saturates, so Bloom suppressions are part of the log
    monkeypatch.setattr(reporter, "GATE_BITS", 1 << 8)
    monkeypatch.setattr(reporter, "CHUNK", 512)
    trace, manifest = latency_setup
    cfg = DetectorConfig(kind, budget_bytes=4_000, seed=3, k=30, type_filter=type_filter,
                         report_epsilon=1e-4)
    entries, decided = _reference_candidates(trace, cfg)
    art = run_experiment(trace, manifest, cfg)
    assert art.candidates.entries == entries
    assert 0 < len(entries) < decided
    assert art.result.extended_memory_bytes == 4_000 + 32


_ARTIFACT_PLANS = {
    "latency": InjectionPlan("latency", 30_000_000, magnitude_high=70_000_000,
                             victims=30, pool=100, seed=21),
    "loss": InjectionPlan("loss", 0.2, victims=20, pool=40, seed=21),
    "ooo": InjectionPlan("reorder", 0.2, victims=20, pool=40, seed=21),
    "retransmit": InjectionPlan("duplicate", 0.3, victims=20, pool=40, seed=21),
}
# sketch + 2^20-bit gate; ooo_shape(40 kB); the sketch plus 29 + 3 x 1,024 B
# for each of the 31 flows tracked at stream end
_EXTENDED_MEMORY = {"latency": 171_072, "loss": 171_072, "ooo": 39_692,
                    "retransmit": 136_131}


@pytest.mark.parametrize("kind", list(_ARTIFACT_PLANS))
def test_run_artifacts_per_kind(base_trace, kind):
    plan = _ARTIFACT_PLANS[kind]
    trace, manifest = INJECTORS[plan.kind](base_trace, plan)
    cfg = DetectorConfig(kind, seed=4, k=20, report_epsilon=1e-4, epsilon=0.01)
    art = run_experiment(trace, manifest, cfg)
    assert art.returned and art.result.recall >= 0.8
    assert art.result.extended_memory_bytes == _EXTENDED_MEMORY[kind]
    if kind in ("latency", "loss"):
        assert len(art.candidates) >= len(art.returned)
        assert controller_topk(art.snapshot, art.candidates, cfg.k).keys() == art.returned
    else:
        assert art.candidates is None and art.snapshot is None


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
