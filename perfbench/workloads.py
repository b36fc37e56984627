"""The benchmark's workloads: set-up, timed operations, and their checks.

Every workload is a closed, single-process batch run over finished traces
built from the workload seed, the way flowsift is used: synthesize and
inject a trace, write and load it, compute the oracle, then time calls
into the public API from outside (``run_experiment`` with the oracle's
relevant set precomputed, or ``flowsift.cli.main`` for the framework).

A workload is a tuple of parts, one per detector. The desk parts use
``desk_experiment`` unchanged: SynthConfig defaults (10^5 flows, 10^6
DATA packets, ~2.4 M records), the preset injection plans and the 40 kB
budget. The framework part runs a 10^4-flow epoch through the CLI.

The runner makes passes; pass p runs every part once with detector seed
``seed + p % detector_seeds``. Recall and precision vary with the hash
seeds, so they are averaged over the detector seeds. Passes beyond the
seeds, and the traced pass, repeat a seed, and a repeated seed must
reproduce its output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from flowsift import cli, experiments, harness, reporter, synth, traceio
from flowsift.countsketch import CountSketchTable
from flowsift.framework import flow_id32
from flowsift.oracle import oracle_rtx
from flowsift.synth import SynthConfig

# Flows and DATA packets of the framework epoch: the generic recovery layer
# runs at ~36 k records/s, so a desk epoch would take a minute per run.
FRAMEWORK_FLOWS = 10_000
FRAMEWORK_PACKETS = 100_000
FRAMEWORK_TOP = 10

# Scaled-down epoch for the smoke test; the latency preset draws victims
# from the 1000 heaviest flows, so it needs more flows than that.
TINY_SYNTH = SynthConfig(flows=2_000, packets=100_000)


@dataclass
class Outcome:
    """One timed operation plus the checks made on its output."""

    seed: int
    records: int
    seconds: float
    recall: float
    precision: float
    digest: str
    attempted: int
    failed: int
    errors: list


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _recording(tracer, run_id: str):
    return tracer.recording(run_id) if tracer else contextlib.nullcontext()


def _repeat_errors(ctx: dict, seed: int, output, what: str) -> list:
    """Empty unless this detector seed ran before with another output."""
    first = ctx["first"].setdefault(seed, output)
    return [] if first == output else [f"{what} seed {seed} repeated gave another output"]


class DeskPart:
    """One detector on its desk preset, through ``run_experiment``."""

    setup_repeats = 1

    def __init__(self, kind: str):
        self.name = kind

    def setup(self, seed: int, seeds: list, workdir: Path, tiny: bool, tracer=None) -> dict:
        with _tiny_epoch() if tiny else contextlib.nullcontext():
            trace, manifest, cfg = experiments.desk_experiment(
                self.name, trace_seed=seed, detector_seed=seed)
        path = workdir / f"{self.name}.lmt"
        traceio.write_trace(trace, path)
        del trace
        trace = traceio.load_trace(path)
        relevant = harness.compute_relevant(trace, cfg, cfg.k)
        return {"trace": trace, "manifest": manifest, "cfg": cfg, "relevant": relevant,
                "first": {}}

    def run(self, ctx: dict, seed: int, tracer=None) -> Outcome:
        """Time one detector run, then check its output."""
        trace = ctx["trace"]
        cfg = replace(ctx["cfg"], seed=seed)
        with _recording(tracer, "detect"):
            t0 = perf_counter()
            art = harness.run_experiment(trace, ctx["manifest"], cfg,
                                         relevant=ctx["relevant"])
            seconds = perf_counter() - t0
        fields = art.result.semantic_fields()
        errors = _repeat_errors(ctx, seed, fields, self.name)
        attempted = 1
        if art.snapshot is not None:
            attempted += 1
            with _recording(tracer, "check"):
                errors += self._check_controller(art, cfg.k)
        return Outcome(seed, len(trace), seconds, art.result.recall,
                       art.result.precision, _digest(fields), attempted, len(errors), errors)

    @staticmethod
    def _check_controller(art, k: int) -> list:
        """The controller re-rank: the snapshot must round-trip and rank
        the run's own report from the candidate log."""
        errors = []
        if CountSketchTable.from_bytes(art.snapshot).to_bytes() != art.snapshot:
            errors.append("snapshot does not round-trip through from_bytes/to_bytes")
        ranked = reporter.controller_topk(art.snapshot, art.candidates, k).keys()
        if ranked != art.returned:
            errors.append("controller_topk ranks other keys than the run's report")
        return errors


class FrameworkPart:
    """``flowsift run --detector framework-count`` through ``cli.main``."""

    name = "framework"
    setup_repeats = 3

    def setup(self, seed: int, seeds: list, workdir: Path, tiny: bool, tracer=None) -> dict:
        config = SynthConfig(flows=FRAMEWORK_FLOWS, packets=FRAMEWORK_PACKETS, seed=seed)
        if tiny:
            config = replace(config, flows=TINY_SYNTH.flows, packets=TINY_SYNTH.flows * 10)
        trace, _ = synth.synthesize(config)
        path = workdir / "framework.lmt"
        traceio.write_trace(trace, path)
        del trace
        trace = traceio.load_trace(path)
        with tracer.span("oracle") if tracer else contextlib.nullcontext():
            stats = oracle_rtx(trace)
            heaviest = sorted(stats, key=lambda key: (-stats[key].packets, key))[:FRAMEWORK_TOP]
            # flow ids depend on the detector seed
            top_ids = {s: {flow_id32(key, s) for key in heaviest} for s in seeds}
            real_ids = {s: {flow_id32(key, s) for key in stats} for s in seeds}
        return {"path": path, "records": len(trace), "out_dir": workdir / "framework-out",
                "top_ids": top_ids, "real_ids": real_ids, "first": {}}

    def run(self, ctx: dict, seed: int, tracer=None) -> Outcome:
        """Time one CLI run, then score the recovered ids."""
        argv = ["--seed", str(seed), "--trace", str(ctx["path"]),
                "--out-dir", str(ctx["out_dir"]), "run", "--detector", "framework-count"]
        with contextlib.redirect_stdout(io.StringIO()), _recording(tracer, "detect"):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"flowsift {' '.join(argv)} exited with {code}")
        rows = json.loads((ctx["out_dir"] / "framework_recovered.json").read_text())
        ids = {row["flow_id"] for row in rows}
        errors = _repeat_errors(ctx, seed, rows, "framework")
        recall = len(ids & ctx["top_ids"][seed]) / len(ctx["top_ids"][seed])
        precision = len(ids & ctx["real_ids"][seed]) / len(ids) if ids else 0.0
        return Outcome(seed, ctx["records"], seconds, recall, precision, _digest(rows),
                       1, len(errors), errors)


@dataclass(frozen=True)
class Workload:
    """The parts a pass runs, in order, and how many detector seeds it cycles."""

    parts: tuple
    detector_seeds: int


@contextlib.contextmanager
def _tiny_epoch():
    """Let desk_experiment synthesize the smoke test's small epoch."""
    saved = experiments._BASE_SYNTH
    experiments._BASE_SYNTH = TINY_SYNTH
    try:
        yield
    finally:
        experiments._BASE_SYNTH = saved


# Two workloads, so that every run can measure for ~40 s within the
# benchmark's time budget. ooo runs alone: its 6-12 s operation needs the
# whole run to be timed more than twice.
WORKLOADS = {
    "desk-ooo": Workload((DeskPart("ooo"),), detector_seeds=2),
    "mixed": Workload((DeskPart("latency"), DeskPart("loss"), DeskPart("retransmit"),
                       FrameworkPart()), detector_seeds=2),
}
