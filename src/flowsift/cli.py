"""Command-line frontend: synth, inject, run, sweep, report.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import hashing
from .framework import FrameworkSketch, flow_id32_batch
from .harness import (ConfigError, DataError, DetectorConfig, DETECTORS,
                      DEFAULT_BUDGETS_KB, median_recall, read_json,
                      run_experiment, sweep_memory, write_reports)
from .inject import (InjectionPlan, inject_duplicate, inject_latency,
                     inject_loss, inject_reorder)
from .packets import PacketType
from .reporter import CandidateLog, controller_topk
from .synth import SynthConfig, read_manifest, synthesize, write_manifest
from .traceio import Trace, load_trace, write_trace

_INJECTORS = {"latency": inject_latency, "loss": inject_loss,
              "reorder": inject_reorder, "duplicate": inject_duplicate}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="flowsift",
                                description="Sketch-based detection of problem flows")
    p.add_argument("--seed", type=int, default=0, help="run seed (default 0)")
    p.add_argument("--trace", type=Path, help="trace path (output for synth)")
    p.add_argument("--manifest", type=Path, help="manifest path (output for synth/inject)")
    p.add_argument("--out-dir", type=Path, default=Path("."), help="report directory")
    p.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    sub = p.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic epoch trace")
    synth.add_argument("--flows", type=int, default=100_000)
    synth.add_argument("--packets", type=int, default=1_000_000)
    synth.add_argument("--zipf", type=float, default=1.1)
    synth.add_argument("--duration-ms", type=int, default=2000)
    synth.add_argument("--unidirectional", action="store_true")
    synth.add_argument("--odd-sizes", action="store_true",
                       help="keep raw Zipf sizes instead of rounding up to even")

    inject = sub.add_parser("inject", help="inject one fault class into a trace")
    inject.add_argument("--kind", choices=tuple(_INJECTORS), required=True)
    inject.add_argument("--out", type=Path, required=True, help="injected trace path")
    inject.add_argument("--rate", type=float, help="loss/reorder/duplicate rate")
    inject.add_argument("--delay-ms", type=float, help="latency delay (fixed)")
    inject.add_argument("--delay-ms-high", type=float,
                        help="upper bound for a per-flow uniform delay draw")
    inject.add_argument("--victims", type=int, default=100)
    inject.add_argument("--pool", type=int, default=1000)

    run = sub.add_parser("run", help="run one detector against a trace")
    _add_run_args(run)
    run.add_argument("--budget-kb", type=int, default=40)
    run.add_argument("--save-snapshot", type=Path, help="write the sketch snapshot")
    run.add_argument("--save-candidates", type=Path, help="write the candidate log CSV")

    sweep = sub.add_parser("sweep", help="memory sweep over seeds")
    _add_run_args(sweep)
    sweep.add_argument("--budgets-kb", type=str,
                       default=",".join(str(b) for b in DEFAULT_BUDGETS_KB))
    sweep.add_argument("--seeds", type=int, default=10)

    report = sub.add_parser("report", help="re-emit results, or rank a snapshot")
    report.add_argument("--results", type=Path, help="results JSON to re-emit")
    report.add_argument("--snapshot", type=Path, help="sketch snapshot to rank against")
    report.add_argument("--candidates", type=Path, help="candidate log CSV")
    report.add_argument("-k", type=int, default=100)
    return p


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--detector", choices=DETECTORS + ("framework-count",),
                     required=True)
    sub.add_argument("-k", type=int, default=100)
    sub.add_argument("--rows", type=int, default=5)
    sub.add_argument("--delta", type=float,
                     help="failure probability; rows = ceil(log2(1/delta))")
    sub.add_argument("--sketch-epsilon", type=float,
                     help="size rows as ceil(9/eps^2) buckets instead of a budget")
    sub.add_argument("--epsilon", type=float,
                     help="elephant-tracking fraction (retransmit, default "
                          "0.001) or top-table fraction (ooo: slots = 1/eps)")
    sub.add_argument("--report-epsilon", type=float, default=0.0,
                     help="mirroring trigger: eps * running total")
    sub.add_argument("--type-filter", choices=("syn", "data", "all"), default="syn")
    sub.add_argument("--time-unit", type=int, default=1000, help="ns per counter unit")
    sub.add_argument("--window-ms", type=float, default=3.0)
    sub.add_argument("--cache-capacity", type=int,
                     help="override the ooo recency-cache entry count")
    sub.add_argument("--weight", choices=("bytes", "packets"), default="bytes")
    sub.add_argument("--k-threshold", type=float, default=1.05)
    sub.add_argument("--od-pairs", action="store_true",
                     help="collapse keys to origin-destination pairs for the run")
    sub.add_argument("--framework-buckets", type=int, default=64)


def _cfg_from_args(args, budget_kb: int) -> DetectorConfig:
    import math
    rows = args.rows
    if args.delta is not None:
        if not 0 < args.delta < 1:
            raise ConfigError("--delta must lie in (0, 1)")
        rows = max(1, math.ceil(math.log2(1 / args.delta)))
    budget_bytes = budget_kb * 1000
    if args.sketch_epsilon is not None:
        buckets = math.ceil(9 / args.sketch_epsilon ** 2)
        budget_bytes = buckets * rows * 4
    ooo_slots = None
    if args.detector == "ooo" and args.epsilon:
        ooo_slots = math.ceil(1 / args.epsilon)
    return DetectorConfig(
        kind=args.detector, budget_bytes=budget_bytes, rows=rows,
        seed=args.seed, k=args.k, report_epsilon=args.report_epsilon,
        type_filter=args.type_filter, time_unit_ns=args.time_unit,
        window_ns=int(args.window_ms * 1e6), weight_mode=args.weight,
        ooo_slots=ooo_slots, cache_capacity=args.cache_capacity,
        epsilon=0.001 if args.epsilon is None else args.epsilon,
        k_threshold=args.k_threshold,
    )


def _load_manifest(args) -> dict:
    if args.manifest is None:
        return {}
    if not args.manifest.exists():
        raise DataError(f"manifest not found: {args.manifest}")
    return read_manifest(args.manifest)


def _require_trace(args) -> Path:
    if args.trace is None:
        raise ConfigError("this command needs --trace")
    return args.trace


def _cmd_synth(args) -> int:
    cfg = SynthConfig(flows=args.flows, packets=args.packets, zipf_s=args.zipf,
                      bidirectional=not args.unidirectional,
                      duration_ns=args.duration_ms * 1_000_000,
                      even_flow_sizes=not args.odd_sizes, seed=args.seed)
    trace, manifest = synthesize(cfg)
    write_trace(trace, _require_trace(args))
    if args.manifest:
        write_manifest(manifest, args.manifest)
    print(f"wrote {len(trace)} records to {args.trace} (sha256 {manifest['trace_sha256'][:12]}...)")
    return 0


def _cmd_inject(args) -> int:
    trace = load_trace(_require_trace(args))
    if args.manifest is None:
        raise ConfigError("inject needs --manifest for the ground-truth output")
    if args.kind == "latency":
        if args.delay_ms is None:
            raise ConfigError("latency injection needs --delay-ms")
        magnitude = args.delay_ms * 1e6
        high = args.delay_ms_high * 1e6 if args.delay_ms_high else None
    else:
        if args.rate is None:
            raise ConfigError(f"{args.kind} injection needs --rate")
        magnitude, high = args.rate, None
    plan = InjectionPlan(kind=args.kind, magnitude=magnitude, magnitude_high=high,
                         victims=args.victims, pool=args.pool, seed=args.seed)
    try:
        out, manifest = _INJECTORS[args.kind](trace, plan)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_trace(out, args.out)
    write_manifest(manifest, args.manifest)
    print(f"injected {args.kind} into {plan.victims} victims; "
          f"wrote {args.out} and {args.manifest}")
    return 0


def _cmd_run(args) -> int:
    trace = load_trace(_require_trace(args))
    if args.od_pairs:
        trace = trace.to_od_pairs()
    if args.detector == "framework-count":
        return _run_framework(args, trace)
    cfg = _cfg_from_args(args, args.budget_kb)
    artifacts = run_experiment(trace, _load_manifest(args), cfg)
    if args.save_snapshot and artifacts.snapshot:
        args.save_snapshot.write_bytes(artifacts.snapshot)
    if args.save_candidates and artifacts.candidates:
        artifacts.candidates.write_csv(args.save_candidates)
    write_reports([artifacts.result], args.out_dir, args.format, stem="run")
    r = artifacts.result
    print(f"{r.detector}: recall={r.recall:.3f} precision={r.precision:.3f} "
          f"({r.runtime_ms:.0f} ms, {r.packets_per_sec:,.0f} pkt/s)")
    return 0


def _run_framework(args, trace: Trace) -> int:
    keys = trace.select(trace.ptype == PacketType.DATA).key_matrix()
    ids = flow_id32_batch(hashing.fold64_matrix(keys), args.seed)
    sketch = FrameworkSketch(args.framework_buckets, 32, run_seed=args.seed)
    sketch.update(ids, np.ones(len(ids), dtype=np.int64))
    unique, first = np.unique(ids, return_index=True)
    id_to_key = {fid: keys[row].tobytes().hex()
                 for fid, row in zip(unique.tolist(), first.tolist())}
    rows = [{"flow_id": rec.flow_id, "margin": rec.margin,
             "key": id_to_key.get(rec.flow_id)}
            for rec in sketch.recover_detailed()]
    rows.sort(key=lambda r: -r["margin"])
    out = args.out_dir / "framework_recovered.json"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    print(f"recovered {len(rows)} candidate ids -> {out}")
    return 0


def _cmd_sweep(args) -> int:
    trace = load_trace(_require_trace(args))
    if args.od_pairs:
        trace = trace.to_od_pairs()
    budgets = tuple(int(b) for b in args.budgets_kb.split(","))
    cfg = _cfg_from_args(args, budgets[0])
    results = sweep_memory(trace, _load_manifest(args), cfg, budgets, args.seeds)
    write_reports(results, args.out_dir, args.format, stem=f"sweep_{args.detector}")
    for budget, rec in median_recall(results).items():
        print(f"{args.detector} @ {budget // 1000} kB: median recall {rec:.3f}")
    return 0


def _cmd_report(args) -> int:
    if args.results:
        results = read_json(args.results)
        paths = write_reports(results, args.out_dir, args.format)
        print(f"re-emitted {len(results)} rows -> {', '.join(str(p) for p in paths)}")
        return 0
    if args.snapshot and args.candidates:
        snapshot = args.snapshot.read_bytes()
        log = CandidateLog.read_csv(args.candidates)
        report = controller_topk(snapshot, log, args.k)
        for key, value in report.entries:
            print(f"{key.hex()},{value}")
        return 0
    raise ConfigError("report needs --results, or --snapshot with --candidates")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"synth": _cmd_synth, "inject": _cmd_inject, "run": _cmd_run,
                "sweep": _cmd_sweep, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
