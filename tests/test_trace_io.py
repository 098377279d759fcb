"""Trace files: what a write stores, what a read gives back, and what a read
rejects. A trace is one .npz per replication, recorded in manifest.json with
its SHA-256."""

import dataclasses
import hashlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossip_learning import example1
from gossip_learning.cli import main
from gossip_learning.simulator import (
    SimulationConfig,
    matrix_fingerprint,
    read_trace,
    run,
    world_fingerprint,
    write_trace,
)
from tests.test_simulator import small_worlds

# log beliefs of every kind a trace can hold, and more: -inf for a collapsed
# state, subnormals, -0.0, the extremes, and any other float
LOG_BELIEFS = st.one_of(
    st.sampled_from([-np.inf, 0.0, -0.0, -5e-324, -1e-310, -2.2250738585072014e-308, -745.1, -1.7976931348623157e308]),
    st.floats(),
)


@settings(max_examples=100, deadline=None)
@given(case=small_worlds(), horizon=st.integers(1, 12), stride=st.integers(1, 5),
       seed=st.integers(0, 2**32), data=st.data())
def test_npz_round_trip_is_bitwise(case, horizon, stride, seed, data, tmp_path_factory):
    net, P, world = case
    cfg = SimulationConfig(horizon=horizon, seed=seed, record_beliefs_every=stride)
    tr = run(net, P, world, cfg)
    if data.draw(st.booleans()):
        size = tr.log_beliefs.size
        values = np.array(data.draw(st.lists(LOG_BELIEFS, min_size=size, max_size=size)))
        tr = dataclasses.replace(tr, log_beliefs=values.reshape(tr.log_beliefs.shape))

    path = tmp_path_factory.mktemp("trace") / "rep000.npz"
    digest = write_trace(tr, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back = read_trace(path, digest, P, world, cfg, fingerprints=(world_fingerprint(world), matrix_fingerprint(P)))
    assert (back.n, back.horizon, back.snapshot_times) == (tr.n, tr.horizon, tr.snapshot_times)
    for name in ("signals", "selections", "log_beliefs"):
        got, want = getattr(back, name), getattr(tr, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    assert (back.world_fingerprint, back.matrix_fingerprint) == (tr.world_fingerprint, tr.matrix_fingerprint)


def test_trace_bytes_are_pinned(tmp_path):
    """SHA-256 of the trace file of `run --horizon 200 --seed 42`, which the
    manifest records too."""
    assert main(["run", "--horizon", "200", "--seed", "42", "--replications", "1",
                 "--out", str(tmp_path), "--quiet"]) == 0
    digest = hashlib.sha256((tmp_path / "rep000.npz").read_bytes()).hexdigest()
    assert digest == "8f70379c5ac7a19a57fe71e45a7421d7bcff57dce45a44d97964e8ec0197422a"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["traces"] == [{"replication": 0, "file": "rep000.npz", "sha256": digest}]


# ---- what a read rejects ----------------------------------------------------

N, T = 8, 20  # the built-in network, run for T rounds


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    assert main(["run", "--horizon", str(T), "--replications", "1", "--out", str(out), "--quiet"]) == 0
    return out


def rewrite(traces, edit):
    """Apply edit to rep000's arrays (a dict it changes in place), write
    them back with np.savez, pickling allowed, and record the new file's
    SHA-256 in the manifest, so a read gets past the digest check."""
    path = traces / "rep000.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    path.write_bytes(buf.getvalue())
    manifest_path = traces / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["traces"][0]["sha256"] = hashlib.sha256(buf.getvalue()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def setitem(name, fn):
    def edit(arrays):
        arrays[name] = fn(arrays[name])
    return edit


def set_entry(name, index, value):
    def fn(a):
        a = a.copy()
        a[index] = value
        return a
    return setitem(name, fn)


def every(*edits):
    def edit(arrays):
        for e in edits:
            e(arrays)
    return edit


def rename(old, new):
    def edit(arrays):
        arrays[new] = arrays.pop(old)
    return edit


def drop_snapshot(t):
    def edit(arrays):
        keep = arrays["snapshot_times"] != t
        arrays["snapshot_times"] = arrays["snapshot_times"][keep]
        arrays["log_beliefs"] = arrays["log_beliefs"][keep]
    return edit


# the first agent (0-based) that agent 1 never consults in the built-in config
UNSUPPORTED = int(np.flatnonzero(example1.config().selection.to_dense()[0] == 0.0)[0])


# Case names keep those of the CSV reader's checks where the same fault has
# an npz form: a row is a row of an array, and the header is the set of
# array names.
CASES = {
    "missing signals row": (setitem("signals", lambda a: a[:-1]),
                            ["rep000.npz", "signals has shape (20, 8), expected (21, 8)"]),
    "missing selections row": (setitem("selections", lambda a: a[:-1]),
                               ["rep000.npz", "selections has shape (19, 8), expected (20, 8)"]),
    "missing beliefs row": (setitem("log_beliefs", lambda a: a[:-1]),
                            ["rep000.npz", "log_beliefs has shape (20, 8, 3), expected (21, 8, 3)"]),
    "duplicate selections row": (setitem("selections", lambda a: np.concatenate([a, a[6:7]])),
                                 ["rep000.npz", "selections has shape (21, 8), expected (20, 8)"]),
    "duplicate beliefs row": (setitem("log_beliefs", lambda a: np.concatenate([a[:1], a])),
                              ["rep000.npz", "log_beliefs has shape (22, 8, 3)"]),
    "agent id above n": (setitem("signals", lambda a: np.concatenate([a, a[:, :1]], axis=1)),
                         ["rep000.npz", "signals has shape (21, 9), expected (21, 8)", "of 8 agents"]),
    "unknown state label": (setitem("log_beliefs", lambda a: np.concatenate([a, a[:, :, :1]], axis=2)),
                            ["rep000.npz", "log_beliefs has shape (21, 8, 4), expected (21, 8, 3)", "over 3 states"]),
    "round outside the horizon": (setitem("selections", lambda a: np.concatenate([a[:1], a])),
                                  ["rep000.npz", "selections has shape (21, 8), expected (20, 8): rounds 1..20"]),
    "cell that is not a number": (setitem("selections", lambda a: np.full(a.shape, "x")),
                                  ["rep000.npz", "selections has dtype <U1, expected int64"]),
    "log beliefs stored as float32": (setitem("log_beliefs", lambda a: a.astype(np.float32)),
                                      ["rep000.npz", "log_beliefs has dtype float32, expected float64"]),
    "changed header": (rename("signals", "sig"), ["rep000.npz", "holds arrays", "'sig'", "'signals'"]),
    "missing array": (lambda arrays: arrays.pop("log_beliefs"), ["rep000.npz", "holds arrays", "'log_beliefs'"]),
    "extra array": (lambda arrays: arrays.update(notes=np.zeros(3)), ["rep000.npz", "holds arrays", "'notes'"]),
    "header without rows": (setitem("signals", lambda a: a[:0]),
                            ["rep000.npz", "signals has shape (0, 8)"]),
    "signals of round 0 only": (every(setitem("signals", lambda a: a[:1]), setitem("selections", lambda a: a[:0])),
                                ["rep000.npz", "signals has shape (1, 8), expected (21, 8): rounds 0..20"]),
    "horizon differs from the config": (
        every(setitem("signals", lambda a: a[:-1]), setitem("selections", lambda a: a[:-1]),
              setitem("snapshot_times", lambda a: a[:-1]), setitem("log_beliefs", lambda a: a[:-1])),
        ["rep000.npz", "signals has shape (20, 8), expected (21, 8): rounds 0..20 of 8 agents"]),
    "snapshot after the last round": (set_entry("snapshot_times", -1, 21),
                                      ["rep000.npz", "snapshot_times has no snapshot at t=20"]),
    "snapshot times differ from the config": (drop_snapshot(10),
                                              ["rep000.npz", "snapshot_times has no snapshot at t=10"]),
    "snapshot times out of order": (setitem("snapshot_times", lambda a: a[::-1].copy()),
                                    ["rep000.npz", "snapshot_times are not the config's times in ascending order"]),
    "signal outside the agent's signals": (set_entry("signals", (9, 1), 2),
                                           ["rep000.npz", "t=9, agent 2: signal 2 outside the agent's signals 0..1"]),
    "chosen agent outside 1..n": (set_entry("selections", (2, 2), -1),
                                  ["rep000.npz", "t=3, agent 3: chosen agent 0 is outside the support"]),
    "chosen agent outside the row's support": (
        set_entry("selections", (4, 0), UNSUPPORTED),
        ["rep000.npz", f"t=5, agent 1: chosen agent {UNSUPPORTED + 1} is outside the support of the agent's "
                       "selection row"]),
    "object array": (setitem("signals", lambda a: a.astype(object)),
                     ["rep000.npz", "signals: Object arrays cannot be loaded when allow_pickle=False"]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_invalid_traces_exit_2_naming_what_is_wrong(name, trace_dir, tmp_path, capsys):
    edit, fragments = CASES[name]
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    rewrite(traces, edit)
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


@pytest.fixture(scope="module")
def two_traces(tmp_path_factory):
    out = tmp_path_factory.mktemp("two")
    assert main(["run", "--horizon", str(T), "--replications", "2", "--out", str(out), "--quiet"]) == 0
    return out


# edits of the manifest's trace list, which holds one entry per replication
MANIFEST_CASES = {
    "entry listed twice": (lambda e: [e[0], dict(e[0])],
                           ["traces[1] lists replication 0, expected replication 1"]),
    "entry missing": (lambda e: e[:1],
                      ["traces lists 1 replication(s), but its config has 2", "replication 1 has no entry"]),
    "entries out of order": (lambda e: e[::-1], ["traces[0] lists replication 1, expected replication 0"]),
    "one file for two replications": (lambda e: [e[0], {**e[0], "replication": 1}],
                                      ["traces[1] lists file 'rep000.npz' a second time"]),
    "entry past the config's replications": (lambda e: e + [{**e[1], "replication": 2}],
                                             ["traces[2] lists replication 2, expected no entry past replication 1"]),
    "file not a string": (lambda e: [e[0], {**e[1], "file": 5}],
                          ["traces[1] lists file 5, expected a bare file name in "]),
    "file in the parent directory": (lambda e: [{**e[0], "file": "../rep000.npz"}, e[1]],
                                     ["traces[0] lists file '../rep000.npz', expected a bare file name in "]),
    "absolute file path": (lambda e: [{**e[0], "file": "/rep000.npz"}, e[1]],
                           ["traces[0] lists file '/rep000.npz', expected a bare file name in "]),
}


@pytest.mark.parametrize("name", list(MANIFEST_CASES))
def test_inconsistent_trace_lists_exit_2_naming_the_entry(name, two_traces, tmp_path, capsys):
    edit, fragments = MANIFEST_CASES[name]
    traces = tmp_path / "traces"
    shutil.copytree(two_traces, traces)
    manifest = json.loads((traces / "manifest.json").read_text())
    manifest["traces"] = edit(manifest["traces"])
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "manifest.json" in err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


def test_consistent_trace_list_reads_back(two_traces, tmp_path, capsys):
    assert main(["rate", "--traces", str(two_traces), "--out", str(tmp_path), "--quiet"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_hash_mismatch_is_rejected_before_the_file_is_loaded(trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    path = traces / "rep000.npz"
    data = bytearray(path.read_bytes())
    data[-200] ^= 0x01
    path.write_bytes(bytes(data))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "rep000.npz: SHA-256 is" in err and "was recorded for it" in err


def test_missing_trace_file(trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    (traces / "rep000.npz").unlink()
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "rep000.npz: no such trace file" in err


def test_csv_trace_directory_asks_for_regeneration(trace_dir, tmp_path, capsys, ex1_cfg):
    """A trace directory as earlier versions wrote it: one repNNN/ of CSVs
    per replication, listed without digests, and the dense-bytes matrix
    fingerprint."""
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    (traces / "rep000.npz").unlink()
    files = ["beliefs.csv", "selections.csv", "signals.csv"]
    (traces / "rep000").mkdir()
    for name in files:
        (traces / "rep000" / name).write_text("t,agent\r\n")
    manifest = json.loads((traces / "manifest.json").read_text())
    manifest["traces"] = [{"replication": 0, "dir": "rep000", "files": files}]
    dense = str(N).encode() + ex1_cfg.selection.to_dense().astype("<f8").tobytes()
    manifest["matrix_fingerprint"] = hashlib.sha256(dense).hexdigest()
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "regenerate the traces with the run command" in err


@pytest.mark.parametrize("text, message", [
    ('{"config": 3}', "manifest.json: config: expected an object, got int"),
    ("5", "manifest.json: expected an object, got int"),
], ids=["config not an object", "manifest not an object"])
def test_manifest_faults_are_named_after_the_manifest(text, message, trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    manifest = json.loads(text)
    if isinstance(manifest, dict):
        manifest = {**json.loads((traces / "manifest.json").read_text()), **manifest}
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith(f"{traces / message}\n")


def test_unedited_traces_read_back(trace_dir, tmp_path):
    assert main(["rate", "--traces", str(trace_dir), "--out", str(tmp_path), "--quiet"]) in (0, 1)


def test_labels_equal_as_text_are_rejected(trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    manifest = json.loads((traces / "manifest.json").read_text())
    manifest["config"]["world"]["states"] = [1, "1", 3]
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "world.states: state labels must be unique as text: 1 and '1' both read '1'" in err


def test_long_horizon_traces_replay_losslessly(tmp_path):
    """At 45000 rounds a false state's belief underflows to 0.0 as a
    probability, but not as a log: rate --traces reproduces the in-memory
    report byte for byte."""
    args = ["--horizon", "45000", "--replications", "2", "--quiet"]
    assert main(["run", "--out", str(tmp_path / "traces"), *args]) == 0
    assert main(["rate", "--traces", str(tmp_path / "traces"), "--out", str(tmp_path / "stored"), "--quiet"]) == 0
    assert main(["rate", "--out", str(tmp_path / "fresh"), *args]) == 0
    stored = (tmp_path / "stored" / "rate_report.csv").read_bytes()
    assert stored == (tmp_path / "fresh" / "rate_report.csv").read_bytes()
