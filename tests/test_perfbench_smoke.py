"""The benchmark's smoke test, run as a test: one tiny run of each workload
and a traced run (``python3 perfbench/smoke.py``, ~4 s).

The output digests it prints per workload, detector and detector seed are
pinned: a change that moves one detector output of the tiny runs fails here.
"""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "desk-ooo": {"ooo": {"3": "7f2b46d3de50c21a", "4": "d49b472eb9ce1d36"}},
    "mixed": {
        "latency": {"3": "7878a1c690ab1e05", "4": "f06ab3b1c26bd6fc"},
        "loss": {"3": "f5a36621f1c52e2b", "4": "235a75746ee0dc5c"},
        "retransmit": {"3": "623c9a36b6c56532", "4": "ab3c4940ebb0611e"},
        "framework": {"3": "927c163dd3128358", "4": "536039f06f135df4"},
    },
}


def test_smoke_runs_and_prints_the_pinned_digests():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    digests = {}
    for line in proc.stdout.splitlines():
        # "smoke: <workload>: ok {<detector>: {<seed>: <digest>}}"
        _, workload, rest = line.split(": ", 2)
        if rest.startswith("ok {"):
            digests[workload] = ast.literal_eval(rest[len("ok "):])
    assert digests == DIGESTS
