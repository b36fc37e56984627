import json

import numpy as np
import pytest

from flowsift.cli import main
from flowsift.framework import flow_id32
from flowsift.traceio import load_trace, write_trace


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    trace = root / "base.lmt"
    assert run_cli("--seed", 3, "--trace", trace, "--manifest", root / "synth.json",
                   "synth", "--flows", 300, "--packets", 6000,
                   "--duration-ms", 300) == 0
    return root, trace


def test_synth_then_inject_then_run(workspace, capsys):
    root, trace = workspace
    injected = root / "lat.lmt"
    manifest = root / "lat.json"
    assert run_cli("--seed", 3, "--trace", trace, "--manifest", manifest,
                   "inject", "--kind", "latency", "--out", injected,
                   "--delay-ms", 40, "--victims", 10, "--pool", 50) == 0
    assert run_cli("--seed", 1, "--trace", injected, "--manifest", manifest,
                   "--out-dir", root, "run", "--detector", "latency", "-k", 10,
                   "--save-snapshot", root / "snap.bin",
                   "--save-candidates", root / "cand.csv") == 0
    out = capsys.readouterr().out
    assert "recall=" in out
    assert (root / "run.csv").exists()
    assert (root / "snap.bin").exists()


def test_controller_report_from_snapshot(workspace, capsys):
    root, _ = workspace
    assert run_cli("report", "--snapshot", root / "snap.bin",
                   "--candidates", root / "cand.csv", "-k", 5) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(lines) <= 5
    key_hex, value = lines[0].split(",")
    assert len(bytes.fromhex(key_hex)) == 26


def test_sweep_and_report_reemit(workspace, capsys):
    root, trace = workspace
    injected, manifest = root / "loss.lmt", root / "loss.json"
    assert run_cli("--seed", 4, "--trace", trace, "--manifest", manifest,
                   "inject", "--kind", "loss", "--out", injected,
                   "--rate", 0.2, "--victims", 10, "--pool", 40) == 0
    assert run_cli("--seed", 0, "--trace", injected, "--manifest", manifest,
                   "--out-dir", root, "--format", "json",
                   "sweep", "--detector", "loss", "-k", 10,
                   "--budgets-kb", "40,80", "--seeds", 2) == 0
    results = json.loads((root / "sweep_loss.json").read_text())
    assert len(results) == 4
    assert run_cli("--out-dir", root, "--format", "both", "report",
                   "--results", root / "sweep_loss.json") == 0
    assert (root / "results.csv").exists()


def test_framework_count_run(workspace):
    root, trace = workspace
    assert run_cli("--seed", 2, "--trace", trace, "--out-dir", root, "run",
                   "--detector", "framework-count",
                   "--framework-buckets", 32) == 0
    rows = json.loads((root / "framework_recovered.json").read_text())
    assert rows and all("flow_id" in r and "margin" in r for r in rows)


def test_framework_count_keys_map_to_ids(workspace):
    root, trace = workspace
    out = root / "fw-keys"
    assert run_cli("--seed", 5, "--trace", trace, "--out-dir", out, "run",
                   "--detector", "framework-count", "--framework-buckets", 16) == 0
    rows = json.loads((out / "framework_recovered.json").read_text())
    keyed = [r for r in rows if r["key"] is not None]
    assert keyed
    for r in keyed:
        assert flow_id32(bytes.fromhex(r["key"]), 5) == r["flow_id"]
    margins = [r["margin"] for r in rows]
    assert margins == sorted(margins, reverse=True)


def test_od_pair_mode_runs(workspace):
    root, trace = workspace
    assert run_cli("--seed", 1, "--trace", trace, "--out-dir", root,
                   "run", "--detector", "loss", "-k", 10, "--od-pairs") == 0


def test_ooo_epsilon_and_cache_flags(workspace):
    root, trace = workspace
    assert run_cli("--seed", 1, "--trace", trace, "--out-dir", root,
                   "run", "--detector", "ooo", "-k", 10,
                   "--epsilon", 0.01, "--cache-capacity", 512,
                   "--weight", "packets") == 0


def test_delta_and_sketch_epsilon_shape_table(workspace, capsys):
    root, trace = workspace
    assert run_cli("--seed", 1, "--trace", trace, "--out-dir", root,
                   "run", "--detector", "loss", "-k", 10,
                   "--delta", 0.03125, "--sketch-epsilon", 0.1) == 0


def test_missing_rate_is_config_error(workspace):
    root, trace = workspace
    code = run_cli("--trace", trace, "--manifest", root / "x.json",
                   "inject", "--kind", "loss", "--out", root / "x.lmt")
    assert code == 2


@pytest.mark.parametrize("detector,flag,value", [
    ("loss", "--report-epsilon", -1),
    ("retransmit", "--k-threshold", 0.5),
    ("ooo", "--epsilon", -1),
    ("retransmit", "--epsilon", -1),
    ("retransmit", "--epsilon", 0),
    ("ooo", "--window-ms", -1),
    ("latency", "--time-unit", 0),
], ids=["report-epsilon", "k-threshold", "epsilon-ooo", "epsilon-retransmit",
        "epsilon-zero", "window-ms", "time-unit"])
def test_out_of_range_knob_is_config_error(workspace, capsys, detector, flag, value):
    _, trace = workspace
    assert run_cli("--trace", trace, "run", "--detector", detector, flag, value) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_trace_flag_is_config_error():
    assert run_cli("run", "--detector", "latency") == 2


def test_missing_trace_file_is_data_error(tmp_path):
    code = run_cli("--trace", tmp_path / "nope.lmt", "run",
                   "--detector", "latency")
    assert code == 3


def test_report_without_inputs_is_config_error():
    assert run_cli("report") == 2


def test_mismatched_manifest_is_data_error(workspace, tmp_path):
    root, trace = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trace_sha256": "0" * 64}))
    code = run_cli("--trace", trace, "--manifest", bad, "run",
                   "--detector", "latency")
    assert code == 3


def test_truncated_trace_is_data_error(workspace, tmp_path):
    _, trace = workspace
    cut = tmp_path / "cut.lmt"
    cut.write_bytes(trace.read_bytes()[:-17])
    assert run_cli("--trace", cut, "run", "--detector", "loss") == 3


def test_short_snapshot_is_data_error(tmp_path):
    snapshot, candidates = tmp_path / "short.bin", tmp_path / "cand.csv"
    snapshot.write_bytes(b"LMCS\x01" + b"\x00" * 5)
    candidates.write_text("key_hex,ts,value\n")
    assert run_cli("report", "--snapshot", snapshot, "--candidates", candidates) == 3


def test_unsorted_trace_is_data_error_for_ooo(workspace, tmp_path):
    _, trace = workspace
    shuffled = tmp_path / "shuffled.lmt"
    records = load_trace(trace)
    write_trace(records.select(np.random.default_rng(0).permutation(len(records))),
                shuffled)
    assert run_cli("--trace", shuffled, "run", "--detector", "ooo") == 3


def test_unsorted_trace_is_data_error_for_retransmit(workspace, tmp_path):
    _, trace = workspace
    shuffled = tmp_path / "shuffled.lmt"
    records = load_trace(trace)
    write_trace(records.select(np.random.default_rng(0).permutation(len(records))),
                shuffled)
    assert run_cli("--trace", shuffled, "run", "--detector", "retransmit") == 3


def test_unknown_snapshot_family_is_data_error(workspace, tmp_path):
    root, trace = workspace
    snapshot, candidates = tmp_path / "snap.bin", tmp_path / "cand.csv"
    assert run_cli("--trace", trace, "--out-dir", tmp_path, "run", "--detector", "loss",
                   "--save-snapshot", snapshot, "--save-candidates", candidates) == 0
    assert run_cli("report", "--snapshot", snapshot, "--candidates", candidates) == 0
    data = bytearray(snapshot.read_bytes())
    data[5] = 9
    snapshot.write_bytes(bytes(data))
    assert run_cli("report", "--snapshot", snapshot, "--candidates", candidates) == 3
