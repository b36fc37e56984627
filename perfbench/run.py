"""Run one flowsift benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 38 --trace 0

Run from the repository root; flowsift is imported from ``src/`` next to
this directory and nowhere else, so the benchmark fails (exit 1, no
result) where the source is missing.

The run sets every part of the workload up from ``--seed`` (a part's
set-up time is the median of its ``setup_repeats``; ``setup_s`` is their
sum). It then runs the parts in turn, pass after pass, at least one pass
per detector seed and then while the next operation still fits in
``--seconds``, checking every output. ``records_per_s`` is the records of
one pass over the sum of each part's median operation time. Recall and
precision are means over the parts and detector seeds. The traced run
repeats the first detector seed, so it also checks that tracing leaves
the output unchanged.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the set-up and one extra pass are traced, and the last
line carries the per-layer metrics; the spans are written to
``.perfbench_out/``. The line before the result records the environment,
the output digests, every operation's time and the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_flowsift():
    sys.path.insert(0, str(SRC))
    try:
        import flowsift
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import flowsift from {SRC}: {exc}")
    if Path(flowsift.__file__).resolve().parent != (SRC / "flowsift").resolve():
        sys.exit(f"perfbench: flowsift imported from {flowsift.__file__}, not from {SRC}")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small epochs, for the smoke test only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_flowsift()
    import numpy

    from metrics import END_TO_END, OVERHEAD, per_layer
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    seeds = [args.seed + i for i in range(workload.detector_seeds)]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        parts = workload.parts
        ctxs, setup_s = {}, 0.0
        for part in parts:
            times = []
            for i in range(part.setup_repeats):
                recorder = tracer if i == 0 else None
                t0 = perf_counter()
                with recorder.recording("setup") if recorder else contextlib.nullcontext():
                    ctxs[part.name] = part.setup(args.seed, seeds, Path(tmp), args.tiny,
                                                 recorder)
                times.append(perf_counter() - t0)
            setup_s += statistics.median(times)

        outcomes = {part.name: [] for part in parts}
        last_s = {}
        crashed = 0
        start = perf_counter()
        for j in itertools.count():
            # operation j: part j % len(parts) of pass j // len(parts)
            part = parts[j % len(parts)]
            t0 = perf_counter()
            try:
                outcomes[part.name].append(
                    part.run(ctxs[part.name], seeds[j // len(parts) % len(seeds)]))
            except Exception:
                traceback.print_exc()
                crashed += 1
            now = perf_counter()
            last_s[part.name] = now - t0
            # after a pass per seed, stop when the next operation would
            # overrun, going by that part's last one
            following = parts[(j + 1) % len(parts)].name
            if (j + 1 >= len(seeds) * len(parts)
                    and now - start + last_s[following] > args.seconds):
                break
        if any(not outs for outs in outcomes.values()):
            print(f"perfbench: {args.workload}: a part failed every operation", file=sys.stderr)
            return 1
        traced = ([part.run(ctxs[part.name], seeds[0], tracer) for part in parts]
                  if tracer is not None else [])

    everything = [o for outs in outcomes.values() for o in outs] + traced
    attempted = sum(o.attempted for o in everything) + crashed
    failed = sum(o.failed for o in everything) + crashed
    for o in everything:
        for error in o.errors:
            print(f"perfbench: {args.workload}: {error}", file=sys.stderr)

    # quality: each part's mean over the detector seeds, one operation
    # each, then the mean over the parts
    firsts = {}
    for name, outs in outcomes.items():
        for o in outs:
            firsts.setdefault(name, {}).setdefault(o.seed, o)
    recall = statistics.mean(statistics.mean(o.recall for o in f.values())
                             for f in firsts.values())
    precision = statistics.mean(statistics.mean(o.precision for o in f.values())
                                for f in firsts.values())
    records = sum(outs[0].records for outs in outcomes.values())
    typical = sum(statistics.median(o.seconds for o in outs) for outs in outcomes.values())
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "operations": j + 1,
        "error_rate": failed / attempted,
        "digests": {name: {seed: o.digest for seed, o in f.items()}
                    for name, f in firsts.items()},
        "setup_s": setup_s,
        "op_s_samples": {name: [o.seconds for o in outs] for name, outs in outcomes.items()},
    }
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "records_per_s": records / typical,
            "recall": recall,
            "precision": precision,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    else:
        layers = per_layer(tracer, ctxs)
        layers[OVERHEAD[0]] = (sum(o.seconds for o in traced) / typical, OVERHEAD[1])
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"info": info, **tracer.dump()}) + "\n")
        info["spans_file"] = str(spans_path.relative_to(ROOT))

    print(json.dumps(info))
    correct = failed == 0 and recall > 0 and precision > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
