"""Trace files: what a write stores, what a read gives back, and what a read
rejects. A trace is one .trace file per replication, its four arrays as NPY
arrays back to back, recorded in manifest.json with its SHA-256."""

import dataclasses
import hashlib
import io
import json
import shutil
import tracemalloc
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossip_learning import example1, simulator
from gossip_learning.cli import main
from gossip_learning.graph import DirectedNetwork, uniform_selection_matrix
from gossip_learning.simulator import (
    SimulationConfig,
    SimulationTrace,
    TraceWriter,
    read_trace,
    run,
    write_trace,
)
from tests.test_simulator import savez_bytes, small_run, small_worlds
from tests.test_world import tiny_world

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

    path = tmp_path_factory.mktemp("trace") / "rep000.trace"
    digest = write_trace(tr, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back = read_trace(path, digest, P, world, cfg)
    assert back == tr
    assert (back.n, back.horizon) == (tr.n, tr.horizon)
    # every field of a trace is one of the file's arrays, given back bit for bit
    for field in dataclasses.fields(SimulationTrace):
        got, want = getattr(back, field.name), getattr(tr, field.name)
        assert got.dtype == want.dtype and got.shape == want.shape, field.name
        assert got.tobytes() == want.tobytes(), field.name
        assert not got.flags.writeable, field.name


def test_trace_bytes_are_pinned(tmp_path):
    """SHA-256 of the trace file of `run --horizon 200 --seed 42`, which the
    manifest records too."""
    assert main(["run", "--horizon", "200", "--seed", "42", "--replications", "1",
                 "--out", str(tmp_path), "--quiet"]) == 0
    digest = hashlib.sha256((tmp_path / "rep000.trace").read_bytes()).hexdigest()
    assert digest == "b0cc755bb3072ece53ee6bf645d493b2d03753a10a3e535ca2c1d1b73108aaf8"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["traces"] == [digest]
    # the digest of the same trace in the .npz layout of earlier versions,
    # the draws widened to int64: a moved seeded bit fails here too
    arrays = stored_arrays((tmp_path / "rep000.trace").read_bytes())
    assert hashlib.sha256(savez_bytes(*arrays.values())).hexdigest() == (
        "8f70379c5ac7a19a57fe71e45a7421d7bcff57dce45a44d97964e8ec0197422a")


def stored_arrays(data: bytes) -> dict:
    """The arrays of a trace file's bytes by name, read by one np.load call
    each."""
    f = io.BytesIO(data)
    return {name: np.load(f) for name in simulator.TRACE_ARRAYS}


def save_bytes(trace: SimulationTrace) -> bytes:
    """The bytes np.save writes for a trace's four arrays, one after another
    in file order: the reference the trace writer keeps."""
    buf = io.BytesIO()
    for name in simulator.TRACE_ARRAYS:
        np.save(buf, getattr(trace, name))
    return buf.getvalue()


@st.composite
def built_traces(draw):
    """A trace built from its arrays: 1-4 agents, or 257 (uint16 choices);
    1-3 states; 1-6 rounds; 1 to horizon + 1 snapshots; log beliefs drawn
    from a pool of LOG_BELIEFS values."""
    n = draw(st.sampled_from([1, 2, 3, 4, 257]))
    horizon = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    times = tuple(sorted(draw(st.sets(st.integers(0, horizon), min_size=1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    signals = rng.integers(0, 3, (horizon + 1, n)).astype(np.uint8)
    selections = rng.integers(0, n, (horizon, n)).astype(np.min_scalar_type(n - 1))
    pool = np.array(draw(st.lists(LOG_BELIEFS, min_size=1, max_size=8)))
    return SimulationTrace(signals, selections, times, rng.choice(pool, (len(times), n, k)))


@settings(max_examples=100, deadline=None)
@given(tr=built_traces(), data=st.data())
def test_the_writer_writes_what_np_save_writes(tr, data, tmp_path_factory):
    want = save_bytes(tr)
    path = tmp_path_factory.mktemp("trace") / "rep000.trace"
    assert write_trace(tr, path) == hashlib.sha256(want).hexdigest()
    assert path.read_bytes() == want
    # the same bytes however the rows arrive
    cuts = sorted(data.draw(st.lists(st.integers(0, len(tr.snapshot_times)), max_size=4)))
    with TraceWriter(path, tr.signals, tr.selections, tr.snapshot_times, tr.log_beliefs.shape[2]) as writer:
        for rows in np.split(tr.log_beliefs, cuts):
            writer.write(rows)
        assert writer.close() == hashlib.sha256(want).hexdigest()
    assert path.read_bytes() == want


def test_a_trace_in_any_memory_order_is_written_in_c_order(ex1_cfg, tmp_path):
    tr = small_run(ex1_cfg, horizon=30, stride=4)
    want = write_trace(tr, tmp_path / "c.trace")
    lb = tr.log_beliefs
    spread = np.zeros(lb.shape[:2] + (2 * lb.shape[2],))
    spread[..., ::2] = lb
    reversed_rows = lb[::-1].copy()[::-1]
    for name, lb_view, signals in [("fortran", np.asfortranarray(lb), np.asfortranarray(tr.signals)),
                                   ("strided", spread[..., ::2], tr.signals),
                                   ("reversed", reversed_rows, tr.signals[::-1].copy()[::-1])]:
        other = dataclasses.replace(tr, signals=signals, log_beliefs=lb_view)
        assert write_trace(other, tmp_path / f"{name}.trace") == want, name
    # np.save writes an F-ordered array in its own order, flagged in its header
    fortran = dataclasses.replace(tr, log_beliefs=np.asfortranarray(lb))
    assert save_bytes(fortran) != (tmp_path / "c.trace").read_bytes()


def test_rows_of_any_layout_or_dtype_write_the_same_bytes(ex1_cfg, tmp_path):
    """TraceWriter.write writes rows as their C-ordered <f8 bytes: the same
    values as C-contiguous float64, a transposed view, in Fortran order, as
    float32 (values it holds exactly) or big-endian give the same file."""
    tr = small_run(ex1_cfg, horizon=40, stride=3)
    lb = tr.log_beliefs.astype(np.float32).astype(np.float64)
    ways = {"c": lb, "transposed": lb.transpose(1, 0, 2).copy().transpose(1, 0, 2),
            "fortran": np.asfortranarray(lb), "float32": lb.astype(np.float32), "big-endian": lb.astype(">f8")}
    files = {}
    for name, rows in ways.items():
        path = tmp_path / f"{name}.trace"
        with TraceWriter(path, tr.signals, tr.selections, tr.snapshot_times, lb.shape[2]) as writer:
            for block in np.array_split(rows, 3):
                writer.write(block)
            digest = writer.close()
        data = path.read_bytes()
        assert digest == hashlib.sha256(data).hexdigest(), name
        files[name] = data
    assert not (ways["transposed"].flags.c_contiguous or ways["transposed"].flags.f_contiguous)
    assert files["c"] == save_bytes(dataclasses.replace(tr, log_beliefs=lb))
    assert all(data == files["c"] for data in files.values())


@pytest.mark.parametrize("edit, error", [
    (lambda tr: tr.signals.astype(object), TypeError),
    (lambda tr: tr.signals[:, 0], IndexError),
], ids=["object signals fail their first write", "1-D signals fail the log beliefs' header"])
def test_a_writer_that_fails_to_open_closes_its_file(edit, error, ex1_cfg, tmp_path, monkeypatch):
    opened = []

    class Recorded(simulator._Hashed):
        def __init__(self, file):
            super().__init__(file)
            opened.append(file)

    monkeypatch.setattr(simulator, "_Hashed", Recorded)
    tr = small_run(ex1_cfg, horizon=5)
    with pytest.raises(error):
        TraceWriter(tmp_path / "rep000.trace", edit(tr), tr.selections, tr.snapshot_times, 3)
    assert len(opened) == 1 and opened[0].closed


def test_example1_draws_are_held_in_bytes(ex1_cfg):
    tr = small_run(ex1_cfg, horizon=20)
    assert (tr.signals.dtype, tr.selections.dtype) == (np.uint8, np.uint8)


@pytest.mark.parametrize("n, signals, dtypes", [
    (300, 2, (np.uint8, np.uint16)),
    (2, 257, (np.uint16, np.uint8)),
    (256, 256, (np.uint8, np.uint8)),
])
def test_draws_are_held_and_stored_narrow(n, signals, dtypes, tmp_path):
    """n agents on a ring, each consulting its predecessor, each drawing its
    last signal: the largest value each array can take."""
    net = DirectedNetwork(n, [((i - 1) % n, i) for i in range(n)])
    P = uniform_selection_matrix(net)
    row = [0.0] * (signals - 1) + [1.0]
    world = tiny_world([[row, row]] * n)
    cfg = SimulationConfig(horizon=4, seed=5)
    tr = run(net, P, world, cfg)
    assert (tr.signals.dtype, tr.selections.dtype) == dtypes
    assert np.all(tr.signals == signals - 1)
    assert np.all(tr.selections == (np.arange(n) - 1) % n)

    digest = write_trace(tr, tmp_path / "rep000.trace")
    stored = stored_arrays((tmp_path / "rep000.trace").read_bytes())
    for name in ("signals", "selections"):
        assert stored[name].dtype == getattr(tr, name).dtype
        assert np.array_equal(stored[name], getattr(tr, name))
    back = read_trace(tmp_path / "rep000.trace", digest, P, world, cfg)
    assert (back.signals.dtype, back.selections.dtype) == dtypes
    assert back == tr


# ---- what a read rejects ----------------------------------------------------

N, T = 8, 20  # the built-in network, run for T rounds


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    assert main(["run", "--horizon", str(T), "--replications", "1", "--out", str(out), "--quiet"]) == 0
    return out


def rewrite(traces, edit):
    """Apply edit to rep000's arrays (a dict it changes in place), write
    them back in the dict's order with np.save, pickling allowed, or as
    they are where an edit made them bytes, and record the new file's
    SHA-256 in the manifest, so a read gets past the digest check."""
    arrays = stored_arrays((traces / "rep000.trace").read_bytes())
    edit(arrays)
    buf = io.BytesIO()
    for values in arrays.values():
        if isinstance(values, bytes):
            buf.write(values)
        else:
            np.save(buf, values)
    replace_trace(traces, buf.getvalue())


def npy_2_0(a):
    """The bytes of array a under an NPY 2.0 header, which np.save writes
    only for a header past 65 535 bytes."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, a, version=(2, 0))
    return buf.getvalue()


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


def drop_snapshot(t):
    def edit(arrays):
        keep = arrays["snapshot_times"] != t
        arrays["snapshot_times"] = arrays["snapshot_times"][keep]
        arrays["log_beliefs"] = arrays["log_beliefs"][keep]
    return edit


# the first agent (0-based) that agent 1 never consults in the built-in config
UNSUPPORTED = int(np.flatnonzero(example1.config().selection.to_dense()[0] == 0.0)[0])


# Case names keep those of the CSV reader's checks where the same fault has
# a trace-file form: a row is a row of an array.
CASES = {
    "missing signals row": (setitem("signals", lambda a: a[:-1]),
                            ["rep000.trace", "signals has shape (20, 8), expected (21, 8)"]),
    "missing selections row": (setitem("selections", lambda a: a[:-1]),
                               ["rep000.trace", "selections has shape (19, 8), expected (20, 8)"]),
    "missing beliefs row": (setitem("log_beliefs", lambda a: a[:-1]),
                            ["rep000.trace", "log_beliefs has shape (20, 8, 3), expected (21, 8, 3)"]),
    "duplicate selections row": (setitem("selections", lambda a: np.concatenate([a, a[6:7]])),
                                 ["rep000.trace", "selections has shape (21, 8), expected (20, 8)"]),
    "duplicate beliefs row": (setitem("log_beliefs", lambda a: np.concatenate([a[:1], a])),
                              ["rep000.trace", "log_beliefs has shape (22, 8, 3)"]),
    "agent id above n": (setitem("signals", lambda a: np.concatenate([a, a[:, :1]], axis=1)),
                         ["rep000.trace", "signals has shape (21, 9), expected (21, 8)", "of 8 agents"]),
    "unknown state label": (setitem("log_beliefs", lambda a: np.concatenate([a, a[:, :, :1]], axis=2)),
                            ["rep000.trace", "log_beliefs has shape (21, 8, 4), expected (21, 8, 3)", "over 3 states"]),
    "round outside the horizon": (setitem("selections", lambda a: np.concatenate([a[:1], a])),
                                  ["rep000.trace", "selections has shape (21, 8), expected (20, 8): rounds 1..20"]),
    "cell that is not a number": (setitem("selections", lambda a: np.full(a.shape, "x")),
                                  ["rep000.trace", "selections has dtype <U1, expected uint8"]),
    "log beliefs stored as float32": (setitem("log_beliefs", lambda a: a.astype(np.float32)),
                                      ["rep000.trace", "log_beliefs has dtype float32, expected float64"]),
    # the arrays are checked in file order, so the signals' shape is named
    # before the log beliefs' dtype
    "float32 log beliefs and a missing signals row": (
        every(setitem("log_beliefs", lambda a: a.astype(np.float32)), setitem("signals", lambda a: a[:-1])),
        ["rep000.trace", "signals has shape (20, 8), expected (21, 8)"]),
    # the file ends where the log beliefs' header should start
    "missing array": (lambda arrays: arrays.pop("log_beliefs"),
                      ["rep000.trace: log_beliefs: EOF: reading magic string, expected 8 bytes got 0"]),
    # np.save of 3 float64 values: a 128-byte header and 24 bytes of data
    "extra array": (lambda arrays: arrays.update(notes=np.zeros(3)),
                    ["rep000.trace: 152 trailing bytes after the four trace arrays"]),
    "header without rows": (setitem("signals", lambda a: a[:0]),
                            ["rep000.trace", "signals has shape (0, 8)"]),
    "signals of round 0 only": (every(setitem("signals", lambda a: a[:1]), setitem("selections", lambda a: a[:0])),
                                ["rep000.trace", "signals has shape (1, 8), expected (21, 8): rounds 0..20"]),
    "horizon differs from the config": (
        every(setitem("signals", lambda a: a[:-1]), setitem("selections", lambda a: a[:-1]),
              setitem("snapshot_times", lambda a: a[:-1]), setitem("log_beliefs", lambda a: a[:-1])),
        ["rep000.trace", "signals has shape (20, 8), expected (21, 8): rounds 0..20 of 8 agents"]),
    "snapshot after the last round": (set_entry("snapshot_times", -1, 21),
                                      ["rep000.trace", "snapshot_times has no snapshot at t=20"]),
    # a header's shape is checked before its values are read
    "snapshot times differ from the config": (drop_snapshot(10),
                                              ["rep000.trace", "snapshot_times has shape (20,), expected (21,)"]),
    "snapshot times out of order": (setitem("snapshot_times", lambda a: a[::-1].copy()),
                                    ["rep000.trace", "snapshot_times are not the config's times in ascending order"]),
    "signal outside the agent's signals": (set_entry("signals", (9, 1), 2),
                                           ["rep000.trace", "t=9, agent 2: signal 2 outside the agent's signals 0..1"]),
    # the largest uint8 choice, named as it is, not wrapped to 0 by the + 1
    "chosen agent outside 1..n": (set_entry("selections", (2, 2), 255),
                                  ["rep000.trace", "t=3, agent 3: chosen agent 256 is outside the support"]),
    "chosen agent outside the row's support": (
        set_entry("selections", (4, 0), UNSUPPORTED),
        ["rep000.trace", f"t=5, agent 1: chosen agent {UNSUPPORTED + 1} is outside the support of the agent's "
                       "selection row"]),
    "object array": (setitem("signals", lambda a: a.astype(object)),
                     ["rep000.trace", "signals: Object arrays cannot be loaded when allow_pickle=False"]),
    "NPY 2.0 header": (setitem("signals", npy_2_0),
                       ["rep000.trace: signals: NPY format version (2, 0), expected (1, 0)"]),
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


# the message for a trace list that is not one digest per replication
LAYOUT = ("its traces are not listed as one SHA-256 digest per replication (a trace layout of earlier "
          "versions); regenerate the traces with the run command")
COUNT = "manifest.json: traces lists {} digest(s), but its config has 2 replication(s)"

# edits of the manifest's trace list, which holds the digest of rep{k:03d}.trace
# at position k: a fault in the list fails the digest check of the file at
# its position, or the count check
MANIFEST_CASES = {
    "entry listed twice": (lambda d: [d[0], d[0]], ["rep001.trace: SHA-256 is"]),
    "entry missing": (lambda d: d[:1], [COUNT.format(1)]),
    "entries out of order": (lambda d: d[::-1], ["rep000.trace: SHA-256 is"]),
    "entry past the config's replications": (lambda d: d + d[1:], [COUNT.format(3)]),
    "digest not a string": (lambda d: [d[0], 5], ["manifest.json: " + LAYOUT]),
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
    for fragment in fragments:
        assert fragment in err, (fragment, err)


def test_renamed_trace_files_exit_2(two_traces, tmp_path, capsys):
    """The reader opens only rep{k:03d}.trace, the file run writes replication
    k to: renamed files whose digests hold are missing to it."""
    traces = tmp_path / "traces"
    shutil.copytree(two_traces, traces)
    for k, name in enumerate(["first.trace", "second.trace"]):
        (traces / f"rep{k:03d}.trace").rename(traces / name)
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {traces / 'rep000.trace'}: no such trace file\n"


def test_dict_entry_trace_list_asks_for_regeneration(two_traces, tmp_path, capsys):
    """The trace list of earlier versions: one {replication, file, sha256}
    object per trace."""
    traces = tmp_path / "traces"
    shutil.copytree(two_traces, traces)
    manifest = json.loads((traces / "manifest.json").read_text())
    manifest["traces"] = [{"replication": k, "file": f"rep{k:03d}.npz", "sha256": d}
                          for k, d in enumerate(manifest["traces"])]
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {traces / 'manifest.json'}: {LAYOUT}\n"


@pytest.mark.parametrize("key, value", [("master_seed", 7), ("master_seed", 42.0), ("replications", 99),
                                        ("seed_derivation", "x")])
def test_manifest_fields_must_match_its_config(key, value, two_traces, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(two_traces, traces)
    manifest = json.loads((traces / "manifest.json").read_text())
    manifest[key] = value
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith(f"manifest.json: {key} does not match its config\n")


def test_manifest_world_must_match_its_fingerprint(two_traces, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(two_traces, traces)
    manifest = json.loads((traces / "manifest.json").read_text())
    likelihoods = manifest["config"]["world"]["likelihoods"]
    likelihoods[0]["table"] = likelihoods[2]["table"]
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert err.endswith("manifest.json: world fingerprint does not match its config\n")


def test_consistent_trace_list_reads_back(two_traces, tmp_path, capsys):
    assert main(["rate", "--traces", str(two_traces), "--out", str(tmp_path), "--quiet"]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_hash_mismatch_is_rejected_before_the_file_is_loaded(trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    path = traces / "rep000.trace"
    data = bytearray(path.read_bytes())
    data[-200] ^= 0x01
    path.write_bytes(bytes(data))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "rep000.trace: SHA-256 is" in err and "was recorded for it" in err


def test_missing_trace_file(trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    (traces / "rep000.trace").unlink()
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "rep000.trace: no such trace file" in err


def test_csv_trace_directory_asks_for_regeneration(trace_dir, tmp_path, capsys, ex1_cfg):
    """A trace directory as earlier versions wrote it: one repNNN/ of CSVs
    per replication, listed without digests, and the dense-bytes matrix
    fingerprint."""
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    (traces / "rep000.trace").unlink()
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
    assert capsys.readouterr().err == f"error: {traces / 'manifest.json'}: {LAYOUT}\n"


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


@pytest.mark.parametrize("edit, message", [
    # Python reads no integer literal of more than 4300 digits
    (lambda text: text.replace(b'"seed": 42', b'"seed": ' + b"1" * 5000),
     "cannot be decoded: Exceeds the limit (4300 digits)"),
    (lambda text: text.replace(b'"prior"', b'"\xff"'), "cannot be decoded: 'utf-8' codec can't decode byte 0xff"),
    (lambda text: b"[" * 100_000, "cannot be decoded: maximum recursion depth exceeded"),
], ids=["integer past the digit limit", "not UTF-8", "nesting past the recursion limit"])
def test_undecodable_manifest_is_invalid_input(edit, message, trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    path = traces / "manifest.json"
    text = path.read_bytes()
    path.write_bytes(edit(text))
    assert path.read_bytes() != text
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err


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


# ---- how a read takes the arrays from the file's bytes ----------------------

@settings(max_examples=100, deadline=None)
@given(tr=built_traces(), fortran=st.lists(st.booleans(), min_size=4, max_size=4))
def test_each_array_is_what_np_load_gives(tr, fortran, tmp_path_factory):
    """The bytes of the trace writer, and np.save's bytes with any of the
    arrays in Fortran order: each array a read takes from them has np.load's
    dtype, shape and values, held C-ordered in memory of its own, and the
    read hashes every byte."""
    path = tmp_path_factory.mktemp("trace") / "rep000.trace"
    write_trace(tr, path)
    buf = io.BytesIO()
    for name, f in zip(simulator.TRACE_ARRAYS, fortran):
        np.save(buf, np.asfortranarray(getattr(tr, name)) if f else getattr(tr, name))
    for data in (path.read_bytes(), buf.getvalue()):
        src, loads = simulator._Hashed(io.BytesIO(data)), io.BytesIO(data)
        for name in simulator.TRACE_ARRAYS:
            want = np.load(loads)
            have = simulator._read_array(src, name, want.dtype, want.shape, "")
            assert (have.dtype, have.shape) == (want.dtype, want.shape), name
            assert have.flags.c_contiguous and have.base is None, name
            assert have.tobytes() == want.tobytes(), name
        assert src.read() == b""
        assert src.sha.hexdigest() == hashlib.sha256(data).hexdigest()


def replace_trace(traces, data: bytes, k: int = 0):
    """Write data as rep{k:03d}.trace and record its SHA-256 in the manifest,
    so a read gets past the digest check."""
    (traces / f"rep{k:03d}.trace").write_bytes(data)
    manifest_path = traces / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["traces"][k] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))


def truncated_log_beliefs(data: bytes) -> bytes:
    """The file cut 8 bytes short of the log beliefs its last header
    describes."""
    return data[:-8]


def compressed(data: bytes) -> bytes:
    """The file's arrays as np.savez_compressed writes them: a zip archive,
    as the traces of earlier versions were."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **stored_arrays(data))
    return buf.getvalue()


# the message for a trace file in the zip layout of earlier versions
ZIP_LAYOUT = "a zip archive, a trace layout of earlier versions; regenerate the traces with the run command"


@pytest.mark.parametrize("edit, message", [
    (truncated_log_beliefs, f"log_beliefs: truncated: {(T + 1) * N * 3 * 8 - 8} bytes of array data, "
                            f"expected {(T + 1) * N * 3 * 8}"),
    (compressed, ZIP_LAYOUT),
], ids=["truncated entry", "compressed entry"])
def test_unreadable_entries_exit_2_naming_the_entry(edit, message, trace_dir, tmp_path, capsys):
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    replace_trace(traces, edit((traces / "rep000.trace").read_bytes()))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {traces / 'rep000.trace'}: {message}\n"


def test_npz_trace_directory_asks_for_regeneration(trace_dir, tmp_path, capsys):
    """A trace directory as earlier versions wrote it: one repNNN.npz a
    replication, each listed by its digest."""
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    data = savez_bytes(*stored_arrays((traces / "rep000.trace").read_bytes()).values())
    (traces / "rep000.trace").unlink()
    (traces / "rep000.npz").write_bytes(data)
    manifest = json.loads((traces / "manifest.json").read_text())
    manifest["traces"] = [hashlib.sha256(data).hexdigest()]
    (traces / "manifest.json").write_text(json.dumps(manifest))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == (f"error: {traces}: holds .npz traces (a trace layout of earlier versions); "
                                       "regenerate the traces with the run command\n")


# where the selections' header starts: past the signals' 128-byte header and
# their (T + 1) x N bytes
SELECTIONS = 128 + (T + 1) * N


@pytest.mark.parametrize("edit", [
    lambda data: data[:SELECTIONS + 136],  # cut inside the selections' values
    lambda data: data[:SELECTIONS] + b"X" + data[SELECTIONS + 1:],  # their magic string
    lambda data: data[:SELECTIONS + 10] + b"(" + data[SELECTIONS + 11:],  # the { of their header
    compressed,
], ids=["file cut short", "bad magic string", "bad header", "zip archive"])
def test_a_digest_mismatch_is_named_before_any_other_fault(edit, trace_dir, tmp_path, capsys):
    """The digest covers every byte, so a file that fails it is named for
    that, however its arrays read: a read that stops at a fault hashes the
    rest of the file before it names the fault."""
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    path = traces / "rep000.trace"
    path.write_bytes(edit(path.read_bytes()))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: SHA-256 is ") and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def short_trace(tmp_path_factory):
    """A T = 40 run's trace directory, its one trace file's bytes, and where
    each array's header starts in them."""
    out = tmp_path_factory.mktemp("short")
    assert main(["run", "--horizon", "40", "--replications", "1", "--out", str(out), "--quiet"]) == 0
    data = (out / "rep000.trace").read_bytes()
    f, starts = io.BytesIO(data), [0]
    for _ in simulator.TRACE_ARRAYS[1:]:
        np.load(f)
        starts.append(f.tell())
    return out, data, starts


# Each edit sets one byte: (array, offset, value) sets byte offset % 128 of
# the header of TRACE_ARRAYS[array], and (4, offset, value) byte offset of the
# file. The examples are edits of the signals' header that numpy's header
# parser answers with each kind of fault it has: a changed header length
# (tokenize.TokenError), a stray comma (SyntaxError), a bytes key (TypeError
# when numpy sorts the keys), a header only Python 2 wrote (a UserWarning)
# and a deprecated dtype (a DeprecationWarning).
@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2**16), st.integers(0, 255)),
                      min_size=1, max_size=3))
@example(edits=[(0, 8, 1)])
@example(edits=[(0, 21, 44)])
@example(edits=[(0, 26, 66)])
@example(edits=[(0, 62, 76)])
@example(edits=[(0, 22, 97)])
def test_changed_trace_bytes_exit_with_one_error_line(edits, short_trace):
    """A trace file with changed bytes and its digest retaken: rate --traces
    exits 2 with one error line and no traceback, or, where the file still
    reads (a change in the log beliefs, say), 0 or 1 with nothing on
    stderr."""
    traces, data, starts = short_trace
    data = bytearray(data)
    for array, offset, value in edits:
        data[starts[array] + offset % 128 if array < 4 else offset % len(data)] = value
    replace_trace(traces, bytes(data))
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(["rate", "--traces", str(traces), "--out", str(traces / "out"), "--quiet"])
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert code in (0, 1) and err.getvalue() == "", (code, err.getvalue())


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_read_trace_owns_aligned_c_ordered_log_beliefs(order, trace_dir, tmp_path, ex1_cfg):
    """However the file orders them, the draws and log beliefs come back as
    aligned C-ordered arrays that own their memory: the trace does not hold
    the file's bytes."""
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    arrays = {name: np.asarray(a, order=order)
              for name, a in stored_arrays((traces / "rep000.trace").read_bytes()).items()}
    buf = io.BytesIO()
    for values in arrays.values():
        np.save(buf, values)
    replace_trace(traces, buf.getvalue())
    digest = json.loads((traces / "manifest.json").read_text())["traces"][0]
    cfg = dataclasses.replace(ex1_cfg.simulation, horizon=T, replications=1)
    back = read_trace(traces / "rep000.trace", digest, ex1_cfg.selection, ex1_cfg.world, cfg)
    for name in ("signals", "selections", "log_beliefs"):
        arr = getattr(back, name)
        assert arr.flags.c_contiguous and arr.flags.aligned and arr.base is None, name
        assert np.array_equal(arr, arrays[name]), name


# ---- rate --traces takes one trace at a time --------------------------------

def test_rate_from_traces_holds_one_trace_at_a_time(tmp_path):
    """tracemalloc's peak over rate --traces of 8 replications stays below
    2.5 trace files' bytes: each trace is read, checked, fitted and dropped
    before the next is read (holding all 8 took about 6 files' worth)."""
    traces = tmp_path / "traces"
    assert main(["run", "--horizon", "5000", "--replications", "8", "--out", str(traces), "--quiet"]) == 0
    file_bytes = (traces / "rep000.trace").stat().st_size
    # a first rate run, so lazy imports and caches are not counted
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "warm"), "--quiet"]) == 0
    tracemalloc.start()
    try:
        assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * file_bytes, (peak, file_bytes)


def test_a_read_peaks_below_1_7_file_sizes(ex1_cfg, tmp_path):
    """tracemalloc's peak over one read of a T = 5000 built-in trace: the
    file's bytes and the trace's log-belief copy take 1.6 file sizes, and
    the selection-support check adds no int64 copy of the choices to them
    (with one, a read peaked at 2.0 file sizes)."""
    assert main(["run", "--horizon", "5000", "--replications", "1", "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "rep000.trace"
    digest = json.loads((tmp_path / "manifest.json").read_text())["traces"][0]
    cfg = dataclasses.replace(ex1_cfg.simulation, horizon=5000, replications=1)
    read_trace(path, digest, ex1_cfg.selection, ex1_cfg.world, cfg)  # so lazy imports and caches are not counted
    tracemalloc.start()
    try:
        tr = read_trace(path, digest, ex1_cfg.selection, ex1_cfg.world, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * path.stat().st_size, (peak, path.stat().st_size)
    assert tr.snapshot_times.dtype == np.int64 and not tr.snapshot_times.flags.writeable


def test_a_read_holds_one_copy_of_the_snapshot_times(ex1_cfg, tmp_path):
    """tracemalloc's peak over one read of a T = 5000 built-in trace stays
    within 96 KiB of the file's size: the trace holds the config's snapshot
    times, and the file's copy, read only to compare with them, is dropped
    before the log beliefs are made (kept, the read peaked 116 KB above the
    size). What is left is the 64 KiB chunk that counts bytes past the last
    array, with the trace's own arrays and their checks."""
    assert main(["run", "--horizon", "5000", "--replications", "1", "--out", str(tmp_path), "--quiet"]) == 0
    path = tmp_path / "rep000.trace"
    digest = json.loads((tmp_path / "manifest.json").read_text())["traces"][0]
    cfg = dataclasses.replace(ex1_cfg.simulation, horizon=5000, replications=1)
    read_trace(path, digest, ex1_cfg.selection, ex1_cfg.world, cfg)  # so lazy imports and caches are not counted
    tracemalloc.start()
    try:
        read_trace(path, digest, ex1_cfg.selection, ex1_cfg.world, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + 96 * 2**10, (peak, path.stat().st_size)


def test_faults_are_named_in_replication_order(two_traces, tmp_path, capsys):
    """A zero true-state belief in replication 1 is named before a digest
    fault in replication 2: each trace is fitted before the next is read."""
    traces = tmp_path / "traces"
    shutil.copytree(two_traces, traces)
    rewrite(traces, set_entry("log_beliefs", (-1, slice(None), 0), -np.inf))
    path = traces / "rep001.trace"
    data = bytearray(path.read_bytes())
    data[-200] ^= 0x01
    path.write_bytes(bytes(data))
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: replication 1: agent 2 has zero belief on the true state at t={T}\n"
