import csv
import json

import numpy as np
import pytest

from flowsift.cli import main
from flowsift.framework import flow_id32
from flowsift.inject import rank_flows
from flowsift.packets import PacketType
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


@pytest.mark.parametrize("command", [["run"], ["sweep", "--budgets-kb", "40", "--seeds", "1"]])
def test_od_pair_mode_checks_the_manifest_against_the_file(workspace, tmp_path, command):
    # the manifest pins the file's trace, not the collapsed one
    root, trace = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trace_sha256": "0" * 64}))
    for manifest, code in ((root / "synth.json", 0), (bad, 3)):
        assert run_cli("--seed", 1, "--trace", trace, "--manifest", manifest,
                       "--out-dir", tmp_path, command[0], "--detector", "loss",
                       "-k", 10, "--od-pairs", *command[1:]) == code


def test_ooo_epsilon_and_cache_flags(workspace):
    root, trace = workspace
    assert run_cli("--seed", 1, "--trace", trace, "--out-dir", root,
                   "run", "--detector", "ooo", "-k", 10,
                   "--epsilon", 0.01, "--cache-capacity", 512,
                   "--weight", "packets") == 0


def test_delta_and_sketch_epsilon_shape_table(workspace, capsys):
    # ceil(9 / 0.1^2) = 900 buckets x ceil(log2 32) = 5 rows x 4-byte counters
    root, trace = workspace
    assert run_cli("--seed", 1, "--trace", trace, "--out-dir", root,
                   "run", "--detector", "loss", "-k", 10,
                   "--delta", 0.03125, "--sketch-epsilon", 0.1) == 0
    with open(root / "run.csv", newline="", encoding="utf-8") as f:
        (row,) = csv.DictReader(f)
    assert int(row["memory_bytes"]) == 18_000


def synth_twice(tmp_path, *flags):
    """Synthesize the same seed twice; the files must match byte for byte."""
    paths = [tmp_path / f"synth{i}.lmt" for i in range(2)]
    for path in paths:
        assert run_cli("--seed", 7, "--trace", path, "synth", "--flows", 40,
                       "--packets", 1001, "--duration-ms", 100, *flags) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    trace = load_trace(paths[0])
    assert (np.diff(trace.ts.astype(np.int64)) >= 0).all()
    return trace


def test_synth_unidirectional_has_data_only(tmp_path):
    trace = synth_twice(tmp_path, "--unidirectional")
    assert set(trace.ptype.tolist()) == {int(PacketType.DATA)}
    assert len(rank_flows(trace)[0]) == 40


def test_synth_odd_sizes_keeps_odd_flows(tmp_path):
    _, rounded = rank_flows(synth_twice(tmp_path))
    assert (rounded % 2 == 0).all()
    _, raw = rank_flows(synth_twice(tmp_path, "--odd-sizes"))
    assert (raw % 2 == 1).any() and raw.sum() == 1001


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
    ("loss", "--sketch-epsilon", 0),
    ("loss", "--sketch-epsilon", -0.1),
    ("latency", "--rows", 0),
    ("ooo", "--cache-capacity", 0),
    ("ooo", "--cache-capacity", 1),
    ("ooo", "--cache-capacity", 5),
    ("ooo", "--cache-capacity", 2),
    ("ooo", "--cache-capacity", 6),
    ("framework-count", "--framework-buckets", 0),
], ids=["report-epsilon", "k-threshold", "epsilon-ooo", "epsilon-retransmit",
        "epsilon-zero", "window-ms", "time-unit", "epsilon-sketch", "epsilon-sketch-negative",
        "rows-zero", "cache-capacity-zero", "cache-capacity-one", "cache-capacity-odd",
        "cache-capacity-two", "cache-capacity-six", "framework-buckets-zero"])
def test_out_of_range_knob_is_config_error(workspace, capsys, detector, flag, value):
    _, trace = workspace
    assert run_cli("--trace", trace, "run", "--detector", detector, flag, value) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--budgets-kb", "40,abc"), ("--seeds", 0)],
                         ids=["budgets-not-integers", "seeds-zero"])
def test_sweep_argument_error_is_config_error(workspace, capsys, tmp_path, flag, value):
    _, trace = workspace
    assert run_cli("--trace", trace, "--out-dir", tmp_path,
                   "sweep", "--detector", "loss", flag, value) == 2
    assert "config error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("kind,magnitude", [
    ("latency", ["--delay-ms", 40]), ("reorder", ["--rate", 0.2]),
    ("duplicate", ["--rate", 0.2])])
def test_unsorted_trace_is_data_error_for_moving_injectors(workspace, tmp_path, kind,
                                                           magnitude):
    _, trace = workspace
    shuffled = tmp_path / "shuffled.lmt"
    records = load_trace(trace)
    write_trace(records.select(np.random.default_rng(0).permutation(len(records))),
                shuffled)
    assert run_cli("--trace", shuffled, "--manifest", tmp_path / "x.json", "inject",
                   "--kind", kind, "--out", tmp_path / "x.lmt", *magnitude,
                   "--victims", 10, "--pool", 50) == 3


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
