"""Experiment harness: detectors vs. oracle over injected traces.

Ties together synthesis, injection, streaming detection, oracle
comparison, and memory sweeps. Every class in ``DETECTORS`` is built by
``from_config(cfg)``, names its exact ground truth in the static
``oracle(trace, cfg) -> (keys, values)``, and streams and ranks a trace
in ``run(trace, k)``; ``controller_inputs()`` is its candidate log and
sketch snapshot, or ``(None, None)``. Memory accounting follows the
counter-array convention (budget = rows x buckets x 4-byte emulated
counters; 40 kB with 5 rows means 2000 buckets per row);
``extended_memory_bytes`` is the detector's ``memory_bytes()``, which
also counts caches, gates, and tracked-flow state, and both figures land
in the result rows.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from statistics import median

from .latency import LatencyDetector
from .loss import LossDetector
from .ooo import STAGES, OooDetector
from .oracle import top_keys
from .reporter import CandidateLog
from .retransmit import RetransmitDetector
from .traceio import DataError, Trace

DETECTORS = {"latency": LatencyDetector, "loss": LossDetector,
             "ooo": OooDetector, "retransmit": RetransmitDetector}
DEFAULT_BUDGETS_KB = (40, 80, 160, 320)


class ConfigError(ValueError):
    """Bad experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class DetectorConfig:
    """One detector run: kind, memory, seeds, and the reporting knobs."""

    kind: str
    budget_bytes: int = 40_000
    rows: int = 5
    seed: int = 0
    k: int = 100
    report_epsilon: float = 0.0      # trigger threshold = eps * running total / 2
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

    @property
    def buckets(self) -> int:
        """Counter-array budget to buckets per row, at 4 bytes per counter."""
        return self.budget_bytes // (self.rows * 4)

    def validate(self) -> None:
        if self.kind not in DETECTORS:
            raise ConfigError(f"unknown detector {self.kind!r}; "
                              f"expected one of {tuple(DETECTORS)}")
        for bad, message in ((self.rows < 1, "rows must be >= 1"),
                             (self.budget_bytes < 4 * self.rows,   # buckets < 1 (safe at rows 0)
                              f"budget {self.budget_bytes} B cannot fit {self.rows} rows"),
                             (self.k < 1, "k must be >= 1"),
                             (self.report_epsilon < 0, "report epsilon must be >= 0"),
                             (self.time_unit_ns < 1, "time unit must be >= 1 ns"),
                             (self.window_ns < 0, "window must be >= 0"),
                             (not 0 < self.epsilon < 1, "epsilon must lie in (0, 1)"),
                             (self.k_threshold <= 1, "k threshold must be > 1"),
                             (self.cache_capacity is not None
                              and (self.cache_capacity < STAGES
                                   or self.cache_capacity % STAGES),
                              f"cache capacity must be a multiple of {STAGES} and >= {STAGES}"),
                             (self.ooo_slots is not None and self.ooo_slots < 1,
                              "ooo slots must be >= 1")):
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


def compute_relevant(trace: Trace, cfg: DetectorConfig, k: int) -> list[bytes]:
    """The relevant set for scoring: the top k of the kind's exact oracle."""
    cfg.validate()
    return top_keys(*DETECTORS[cfg.kind].oracle(trace, cfg), k)


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
    det = DETECTORS[cfg.kind].from_config(cfg)
    report = det.run(trace, k)
    candidates, snapshot = det.controller_inputs()
    runtime = time.perf_counter() - start
    returned = report.keys()
    recall, precision = _score(returned, relevant)
    result = EvalResult(
        detector=cfg.kind, memory_bytes=cfg.budget_bytes,
        fault_magnitude=float(manifest.get("plan", {}).get("magnitude", 0.0)),
        seed=cfg.seed, recall=recall, precision=precision,
        runtime_ms=runtime * 1000.0,
        packets_per_sec=len(trace) / runtime if runtime > 0 else 0.0,
        extended_memory_bytes=det.memory_bytes(),
    )
    return RunArtifacts(result, returned, relevant, candidates, snapshot)


def sweep_memory(trace: Trace, manifest: dict, cfg: DetectorConfig,
                 budgets_kb=DEFAULT_BUDGETS_KB, seeds: int = 10) -> list[EvalResult]:
    """One row per (budget, seed) over a fixed trace; decimal kilobytes."""
    check_manifest(trace, manifest)
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
