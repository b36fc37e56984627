"""Experiment harness: detectors vs. oracle over injected traces.

Ties together synthesis, injection, streaming detection with the
reporting gate, oracle comparison, and memory sweeps. Memory accounting
follows the counter-array convention (budget = rows x buckets x 4-byte
emulated counters; 40 kB with 5 rows means 2000 buckets per row);
``extended_memory_bytes`` additionally counts caches, gates, and tracked-flow
state, and both figures land in the result rows.

Streaming runs in chunks: sketch updates are exact, and the mirroring
gate is evaluated once per chunk for the flows that carried a
triggering packet in it. Each detector's batch call returns the keys
and folds the gate needs, so the harness derives none itself. The Bloom
gate is the only dedup, fed each chunk's crossing folds in one call.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from statistics import median

import numpy as np

from .latency import LatencyDetector, TypeFilter
from .loss import LossDetector
from .ooo import CACHE_ENTRY_BYTES, OooDetector, TOP_SLOT_BYTES
from .oracle import oracle_loss, oracle_ooo, oracle_rtt, oracle_rtx, relevant_topk
from .packets import PacketType
from .reporter import BloomGate, CandidateLog
from .retransmit import RetransmitDetector
from .traceio import Trace

DETECTORS = ("latency", "loss", "ooo", "retransmit")
DEFAULT_BUDGETS_KB = (40, 80, 160, 320)
CHUNK = 8192
GATE_BITS = 1 << 20     # the mirroring gate's Bloom bits


class ConfigError(ValueError):
    """Bad experiment configuration (CLI exit code 2)."""


class DataError(ValueError):
    """Inconsistent trace/manifest data (CLI exit code 3)."""


def budget_to_buckets(budget_bytes: int, rows: int = 5) -> int:
    """Counter-array budget to buckets per row, at 4 bytes per counter."""
    buckets = budget_bytes // (rows * 4)
    if buckets < 1:
        raise ConfigError(f"budget {budget_bytes} B cannot fit {rows} rows")
    return buckets


def ooo_shape(budget_bytes: int) -> tuple[int, int]:
    """Split an out-of-order budget: ~1/4 top-table slots, rest cache
    (capacity rounded down to a power of two)."""
    slots = max(1, budget_bytes // 4 // TOP_SLOT_BYTES)
    cache_budget = budget_bytes - slots * TOP_SLOT_BYTES
    capacity = 1 << max(1, (cache_budget // CACHE_ENTRY_BYTES).bit_length() - 1)
    return slots, capacity


@dataclass(frozen=True)
class DetectorConfig:
    """One detector run: kind, memory, seeds, and the reporting knobs."""

    kind: str
    budget_bytes: int = 40_000
    rows: int = 5
    seed: int = 0
    k: int = 100
    report_epsilon: float = 0.0      # trigger threshold = eps * running total
    # latency
    type_filter: str = "syn"
    time_unit_ns: int = 1000
    # ooo
    window_ns: int = 3_000_000
    weight_mode: str = "bytes"
    ooo_slots: "int | None" = None          # override the budget split
    cache_capacity: "int | None" = None
    # retransmit
    epsilon: float = 0.001
    k_threshold: float = 1.05
    registers: int = 1024

    def validate(self) -> None:
        if self.kind not in DETECTORS:
            raise ConfigError(f"unknown detector {self.kind!r}; expected one of {DETECTORS}")
        for bad, message in ((self.k < 1, "k must be >= 1"),
                             (self.report_epsilon < 0, "report epsilon must be >= 0"),
                             (self.time_unit_ns < 1, "time unit must be >= 1 ns"),
                             (self.window_ns < 0, "window must be >= 0"),
                             (not 0 < self.epsilon < 1, "epsilon must lie in (0, 1)"),
                             (self.k_threshold <= 1, "k threshold must be > 1")):
            if bad:
                raise ConfigError(message)


@dataclass
class EvalResult:
    detector: str
    memory_bytes: int
    fault_magnitude: float
    seed: int
    recall: float
    precision: float
    runtime_ms: float
    packets_per_sec: float
    extended_memory_bytes: int = 0

    COLUMNS = ("detector", "memory_bytes", "fault_magnitude", "seed",
               "recall", "precision", "runtime_ms", "packets_per_sec",
               "extended_memory_bytes")

    def row(self) -> list:
        return [getattr(self, c) for c in self.COLUMNS]

    def semantic_fields(self) -> tuple:
        """Everything except wall-clock measurements, for determinism checks."""
        return (self.detector, self.memory_bytes, self.fault_magnitude,
                self.seed, self.recall, self.precision)


@dataclass
class RunArtifacts:
    """What a single run produced beyond the score."""

    result: EvalResult
    returned: list[bytes] = field(default_factory=list)
    relevant: list[bytes] = field(default_factory=list)
    candidates: "CandidateLog | None" = None
    snapshot: "bytes | None" = None


def _score(returned: list[bytes], relevant: list[bytes]) -> tuple[float, float]:
    hits = len(set(returned) & set(relevant))
    recall = hits / len(relevant) if relevant else 0.0
    precision = hits / len(returned) if returned else 0.0
    return recall, precision


def _stream_sketch_with_gate(trace: Trace, detector, trigger_types,
                             cfg: DetectorConfig) -> CandidateLog:
    """Chunked streaming: update the sketch, then evaluate the mirroring
    gate for flows that carried a trigger-type packet in the chunk."""
    gate = BloomGate(GATE_BITS, run_seed=cfg.seed)
    log = CandidateLog(seed_signature=detector.table.seed_signature())
    trigger_codes = [int(t) for t in trigger_types]
    for lo in range(0, len(trace), CHUNK):
        sub = trace.select(slice(lo, lo + CHUNK))
        admitted, keys, folds = detector.observe_batch(sub)
        rows = np.flatnonzero(np.isin(sub.ptype[admitted], trigger_codes))
        hot, first = np.unique(folds[rows], return_index=True)
        estimates = np.abs(detector.table.estimate_batch(hot))
        threshold = cfg.report_epsilon * detector.table.total_l1 / 2.0
        crossing = np.flatnonzero(estimates >= threshold)
        now = int(sub.ts[-1])
        for i in crossing[gate.insert_folds(hot[crossing])].tolist():
            log.entries.append((keys[rows[first[i]]].tobytes(), now, float(estimates[i])))
    return log


def compute_relevant(trace: Trace, cfg: DetectorConfig, k: int) -> list[bytes]:
    """Oracle top-k for a detector kind: the relevant set for scoring."""
    if cfg.kind == "latency":
        oracle = oracle_rtt(trace, TypeFilter.named(cfg.type_filter),
                            time_unit_ns=cfg.time_unit_ns)
        return relevant_topk(oracle.matched, k)
    if cfg.kind == "loss":
        return relevant_topk(oracle_loss(trace), k)
    if cfg.kind == "ooo":
        return relevant_topk(oracle_ooo(trace, cfg.window_ns, cfg.weight_mode), k)
    defects = {key: stats for key, stats in oracle_rtx(trace).items()
               if stats.avg_retransmissions > 1.0}
    return relevant_topk(defects, k)


def check_manifest(trace: Trace, manifest: dict) -> None:
    """Raise DataError when the manifest pins another trace's hash."""
    if manifest.get("trace_sha256") and manifest["trace_sha256"] != trace.sha256():
        raise DataError("manifest hash does not match the trace")


def run_experiment(trace: Trace, manifest: dict, cfg: DetectorConfig,
                   k: "int | None" = None,
                   relevant: "list[bytes] | None" = None) -> RunArtifacts:
    """Stream one trace through one detector and score it against the oracle."""
    cfg.validate()
    k = cfg.k if k is None else k
    check_manifest(trace, manifest)
    if relevant is None:
        relevant = compute_relevant(trace, cfg, k)

    start = time.perf_counter()
    buckets = budget_to_buckets(cfg.budget_bytes, cfg.rows)
    candidates: "CandidateLog | None" = None
    snapshot: "bytes | None" = None

    if cfg.kind == "latency":
        det = LatencyDetector(buckets=buckets, rows=cfg.rows, run_seed=cfg.seed,
                              type_filter=TypeFilter.named(cfg.type_filter),
                              time_unit_ns=cfg.time_unit_ns)
        candidates = _stream_sketch_with_gate(
            trace, det, det.type_filter.responses, cfg)
        report = det.topk(candidates.keys(), k, epsilon=0.0)
        snapshot = det.table.to_bytes()
        extended_total = cfg.budget_bytes + GATE_BITS // 8
    elif cfg.kind == "loss":
        det = LossDetector(buckets=buckets, rows=cfg.rows, run_seed=cfg.seed)
        candidates = _stream_sketch_with_gate(trace, det, (PacketType.DATA,), cfg)
        report = det.topk(candidates.keys(), k, epsilon=0.0)
        snapshot = det.table.to_bytes()
        extended_total = cfg.budget_bytes + GATE_BITS // 8
    elif cfg.kind == "ooo":
        slots, capacity = ooo_shape(cfg.budget_bytes)
        slots = cfg.ooo_slots or slots
        capacity = cfg.cache_capacity or capacity
        det = OooDetector(slots=slots, cache_capacity=capacity,
                          window_ns=cfg.window_ns, weight_mode=cfg.weight_mode,
                          run_seed=cfg.seed)
        det.observe_trace(trace)
        report = det.topk(k)
        extended_total = det.memory_bytes()
    else:
        det = RetransmitDetector(buckets=buckets, rows=cfg.rows, run_seed=cfg.seed,
                                 epsilon=cfg.epsilon, registers=cfg.registers)
        det.observe_trace(trace)
        report = det.report(cfg.k_threshold)
        report.entries = report.entries[:k]
        extended_total = det.memory_bytes()

    runtime = time.perf_counter() - start
    returned = report.keys()
    recall, precision = _score(returned, relevant)
    result = EvalResult(
        detector=cfg.kind, memory_bytes=cfg.budget_bytes,
        fault_magnitude=float(manifest.get("plan", {}).get("magnitude", 0.0)),
        seed=cfg.seed, recall=recall, precision=precision,
        runtime_ms=runtime * 1000.0,
        packets_per_sec=len(trace) / runtime if runtime > 0 else 0.0,
        extended_memory_bytes=extended_total,
    )
    return RunArtifacts(result, returned, relevant, candidates, snapshot)


def sweep_memory(trace: Trace, manifest: dict, cfg: DetectorConfig,
                 budgets_kb=DEFAULT_BUDGETS_KB, seeds: int = 10) -> list[EvalResult]:
    """One row per (budget, seed) over a fixed trace; decimal kilobytes."""
    check_manifest(trace, manifest)
    manifest = {key: v for key, v in manifest.items() if key != "trace_sha256"}
    relevant = compute_relevant(trace, cfg, cfg.k)
    results = []
    for budget_kb in budgets_kb:
        for seed in range(seeds):
            run_cfg = replace(cfg, budget_bytes=budget_kb * 1000,
                              seed=cfg.seed + seed)
            results.append(run_experiment(trace, manifest, run_cfg,
                                          relevant=relevant).result)
    return results


def median_recall(results: list[EvalResult]) -> dict[int, float]:
    """Median recall per memory budget."""
    by_budget: dict[int, list[float]] = {}
    for r in results:
        by_budget.setdefault(r.memory_bytes, []).append(r.recall)
    return {b: median(v) for b, v in sorted(by_budget.items())}


# -- report files -------------------------------------------------------------

def write_csv(results: list[EvalResult], path: "str | Path") -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(EvalResult.COLUMNS)
        for r in results:
            writer.writerow(r.row())


def write_json(results: list[EvalResult], path: "str | Path") -> None:
    payload = [dict(zip(EvalResult.COLUMNS, r.row())) for r in results]
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def read_json(path: "str | Path") -> list[EvalResult]:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    known = {f.name for f in fields(EvalResult)}
    return [EvalResult(**{k: v for k, v in row.items() if k in known})
            for row in payload]


def write_reports(results: list[EvalResult], out_dir: "str | Path",
                  fmt: str = "csv", stem: str = "results") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("csv", "both"):
        path = out_dir / f"{stem}.csv"
        write_csv(results, path)
        written.append(path)
    if fmt in ("json", "both"):
        path = out_dir / f"{stem}.json"
        write_json(results, path)
        written.append(path)
    return written
