"""Smoke test of the benchmark: one tiny run of each workload, plus a traced run.

    python3 perfbench/smoke.py

Run from the repository root. Checks that every run exits 0 and ends in a
well-formed result, that the metric names, units and directions match
BENCHMARK.json, that no operation failed, that the environment and seed
are recorded, and that tracing leaves the output digest unchanged.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, OVERHEAD, PER_LAYER  # noqa: E402

SEED = 3
TRACED = "mixed"


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    assert info["error_rate"] == 0.0, info
    assert info["seed"] == SEED and info["nproc"] and info["python"] and info["numpy"], info
    return info, result


def check_metrics(result: dict, expected: list, workload: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert got == want, f"{workload}: metrics {got} != {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (workload, name, m)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    assert declared == list(END_TO_END), declared
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [m[:3] for m in PER_LAYER] + [OVERHEAD[:3]], declared

    digests = {}
    for workload in (w["name"] for w in bench["workloads"]):
        info, result = run(workload, 0)
        check_metrics(result, bench["end_to_end"], workload)
        assert all(m["value"] > 0 for m in result["metrics"].values()), (workload, result)
        digests[workload] = info["digests"]
        print(f"smoke: {workload}: ok {info['digests']}")

    info, result = run(TRACED, 1)
    check_metrics(result, bench["per_layer"], TRACED)
    assert info["digests"] == digests[TRACED], "tracing changed the output"
    assert result["metrics"]["harness.run_s"]["value"] > 0, result
    print(f"smoke: {TRACED} traced: ok, spans in {info['spans_file']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
