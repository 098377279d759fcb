"""Trace CSV I/O: the bytes written, the arrays read back, and the checks a
read makes. The reference writer and reader below are the plain csv-module
row loops the columnar I/O must match byte for byte and bit for bit."""

import csv
import dataclasses
import hashlib
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossip_learning.cli import main
from gossip_learning.errors import ValidationError
from gossip_learning.simulator import SimulationConfig, read_trace_csvs, run, write_trace_csvs
from gossip_learning.world import StateSpace
from tests.test_simulator import small_run, small_worlds

TRACE_FILES = ("beliefs.csv", "selections.csv", "signals.csv")


def reference_write(trace, world, directory):
    """One csv.writer row per cell, floats as repr."""
    labels = [str(s) for s in world.state_space.states]

    def write(name, header, rows):
        with (directory / name).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    write("beliefs.csv", ["t", "agent", "state", "prob"], (
        [t, i, label, repr(p)]
        for t, probs in zip(trace.snapshot_times, np.exp(trace.log_beliefs).tolist())
        for i, row in enumerate(probs, 1)
        for label, p in zip(labels, row)
    ))
    write("selections.csv", ["t", "agent", "chosen"], (
        [t, i, chosen] for t, row in enumerate((trace.selections + 1).tolist(), 1) for i, chosen in enumerate(row, 1)
    ))
    write("signals.csv", ["t", "agent", "signal"], (
        [t, i, s] for t, row in enumerate(trace.signals.tolist()) for i, s in enumerate(row, 1)
    ))


def reference_read(directory):
    """(signals, selections, times, log_beliefs) from csv.DictReader rows."""
    with (directory / "signals.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    n = max(int(r["agent"]) for r in rows)
    horizon = max(int(r["t"]) for r in rows)
    signals = np.zeros((horizon + 1, n), dtype=np.int64)
    for r in rows:
        signals[int(r["t"]), int(r["agent"]) - 1] = int(r["signal"])
    with (directory / "selections.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    selections = np.zeros((horizon, n), dtype=np.int64)
    for r in rows:
        selections[int(r["t"]) - 1, int(r["agent"]) - 1] = int(r["chosen"]) - 1
    with (directory / "beliefs.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = []
    for r in rows:
        if r["state"] not in labels:
            labels.append(r["state"])
    times = sorted({int(r["t"]) for r in rows})
    slot = {t: m for m, t in enumerate(times)}
    probs = np.zeros((len(times), n, len(labels)))
    for r in rows:
        probs[slot[int(r["t"])], int(r["agent"]) - 1, labels.index(r["state"])] = float(r["prob"])
    with np.errstate(divide="ignore"):
        return signals, selections, tuple(times), np.log(probs)


# labels the csv module has to quote or that a parser could mangle: the
# delimiter, the quote character, '#', surrounding spaces, line breaks,
# tabs and non-ASCII letters
LABEL_TEXT = st.text(alphabet=st.sampled_from(list('ab1,"# \t\r\né€') + ["\U0001d49c"]), max_size=6)

# probabilities of every kind a belief can hold: exact 0 and 1, subnormals,
# the smallest normal, ordinary values
PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310, 0.5]),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=100, deadline=None)
@given(case=small_worlds(), horizon=st.integers(1, 12), stride=st.integers(1, 5),
       seed=st.integers(0, 2**32), data=st.data())
def test_columnar_io_matches_the_csv_module(case, horizon, stride, seed, data, tmp_path_factory):
    net, P, world = case
    k = world.num_states
    labels = data.draw(st.lists(st.one_of(LABEL_TEXT, st.integers(-5, 50)), min_size=k, max_size=k,
                                unique_by=str))
    world = dataclasses.replace(world, state_space=StateSpace(tuple(labels), world.true_state_index))
    tr = run(net, P, world, SimulationConfig(horizon=horizon, seed=seed, record_beliefs_every=stride))
    if data.draw(st.booleans()):
        probs = np.array(data.draw(st.lists(PROBS, min_size=tr.log_beliefs.size, max_size=tr.log_beliefs.size)))
        with np.errstate(divide="ignore"):
            tr = dataclasses.replace(tr, log_beliefs=np.log(probs).reshape(tr.log_beliefs.shape))

    ours, ref = tmp_path_factory.mktemp("ours"), tmp_path_factory.mktemp("ref")
    write_trace_csvs(tr, world, ours)
    reference_write(tr, world, ref)
    for name in TRACE_FILES:
        assert (ours / name).read_bytes() == (ref / name).read_bytes(), name

    back = read_trace_csvs(ours, world)
    signals, selections, times, log_beliefs = reference_read(ref)
    assert back.n == tr.n and back.horizon == tr.horizon
    assert np.array_equal(back.signals, signals) and np.array_equal(back.signals, tr.signals)
    assert np.array_equal(back.selections, selections) and np.array_equal(back.selections, tr.selections)
    assert back.snapshot_times == times == tr.snapshot_times
    assert back.log_beliefs.tobytes() == log_beliefs.tobytes()


def test_trace_bytes_are_pinned(tmp_path):
    """SHA-256 of the trace files of `run --horizon 200 --seed 42`, as
    written by the csv-module writer."""
    assert main(["run", "--horizon", "200", "--seed", "42", "--replications", "1",
                 "--out", str(tmp_path), "--quiet"]) == 0
    digests = {name: hashlib.sha256((tmp_path / "rep000" / name).read_bytes()).hexdigest() for name in TRACE_FILES}
    assert digests == {
        "beliefs.csv": "a3def129ecd26fb8b06a9e4acddf9965d3027c23299b16ebf6bdf70a5967bcfc",
        "selections.csv": "007892051f425a1563f15b511d2ba03214d332408aae1ad358f3a4f97ce069ea",
        "signals.csv": "9843d955946d0d70832061c285b04bc3bf6b6d161f1abaa67a3395cce2be838f",
    }


# ---- what a read rejects ----------------------------------------------------

N, T = 8, 20  # the built-in network, run for T rounds


def signals_line(t, agent):
    return 1 + t * N + agent - 1


def selections_line(t, agent):
    return 1 + (t - 1) * N + agent - 1


def beliefs_line(t, agent, state):
    return 1 + (t * N + agent - 1) * 3 + state - 1


def drop(line):
    return lambda lines: lines[:line] + lines[line + 1:]


def replace_cell(line, column, value):
    def edit(lines):
        cells = lines[line].split(",")
        cells[column] = value
        return lines[:line] + [",".join(cells)] + lines[line + 1:]
    return edit


def drop_time(t):
    return lambda lines: [x for x in lines if not x.startswith(f"{t},")]


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    assert main(["run", "--horizon", str(T), "--replications", "1", "--out", str(out), "--quiet"]) == 0
    return out


def edit_file(path, edit):
    lines = path.read_bytes().decode().split("\r\n")[:-1]  # every line ends in \r\n
    path.write_bytes("".join(x + "\r\n" for x in edit(lines)).encode())


CASES = {
    "missing signals row": ({"signals.csv": drop(signals_line(5, 3))},
                            ["signals.csv", "t=5, agent 3", "is missing"]),
    "missing selections row": ({"selections.csv": drop(selections_line(20, 8))},
                               ["selections.csv", "t=20, agent 8", "is missing"]),
    "missing beliefs row": ({"beliefs.csv": drop(beliefs_line(4, 6, 2))},
                            ["beliefs.csv", "t=4, agent 6, state 2", "is missing"]),
    "duplicate selections row": ({"selections.csv": lambda lines: lines + [lines[selections_line(7, 2)]]},
                                 ["selections.csv", "t=7, agent 2", "appears more than once"]),
    "duplicate beliefs row": ({"beliefs.csv": lambda lines: lines + [lines[beliefs_line(0, 1, 3)]]},
                              ["beliefs.csv", "t=0, agent 1, state 3", "appears more than once"]),
    "agent id above n": ({"signals.csv": replace_cell(signals_line(3, 8), 1, "9")},
                         ["signals.csv", "t=3, agent 9", "agent id outside 1..8"]),
    "agent id zero": ({"beliefs.csv": replace_cell(beliefs_line(2, 1, 1), 1, "0")},
                      ["beliefs.csv", "t=2, agent 0", "agent id outside 1..8"]),
    "unknown state label": ({"beliefs.csv": replace_cell(beliefs_line(6, 5, 2), 2, "7")},
                            ["beliefs.csv", "t=6, agent 5", "unknown state label '7'"]),
    "label longer than every configured label": (
        {"beliefs.csv": replace_cell(beliefs_line(6, 5, 2), 2, "2 and more")},
        ["beliefs.csv", "t=6, agent 5", "unknown state label '2 '"]),
    "round outside the horizon": ({"selections.csv": replace_cell(selections_line(1, 4), 0, "0")},
                                  ["selections.csv", "t=0, agent 4", "t outside 1..20"]),
    "snapshot after the last round": ({"beliefs.csv": replace_cell(beliefs_line(20, 1, 1), 0, "21")},
                                      ["beliefs.csv", "t=21, agent 1", "t outside 0..20"]),
    "signal outside the agent's signals": ({"signals.csv": replace_cell(signals_line(9, 2), 2, "2")},
                                           ["signals.csv", "t=9, agent 2", "signal 2 outside"]),
    "chosen agent outside 1..n": ({"selections.csv": replace_cell(selections_line(3, 3), 2, "0")},
                                  ["selections.csv", "t=3, agent 3", "chosen agent 0 outside 1..8"]),
    "horizon differs from the config": (
        {name: drop_time(T) for name in TRACE_FILES},
        ["signals.csv", "rounds end at t=19", "horizon is 20"]),
    "snapshot times differ from the config": ({"beliefs.csv": drop_time(10)},
                                              ["beliefs.csv", "has no snapshot at t=10"]),
    "changed header": ({"signals.csv": lambda lines: ["t,agent,sig"] + lines[1:]},
                       ["signals.csv", "header is 't,agent,sig'"]),
    "cell that is not a number": ({"selections.csv": replace_cell(selections_line(2, 2), 2, "x")},
                                  ["selections.csv", "'x'"]),
    "header without rows": ({"signals.csv": lambda lines: lines[:1]}, ["signals.csv", "has no rows"]),
    "signals of round 0 only": ({"signals.csv": lambda lines: lines[:1 + N]},
                                ["signals.csv", "rounds end at t=0"]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_invalid_traces_exit_2_naming_what_is_wrong(name, trace_dir, tmp_path, capsys):
    edits, fragments = CASES[name]
    traces = tmp_path / "traces"
    shutil.copytree(trace_dir, traces)
    for file, edit in edits.items():
        edit_file(traces / "rep000" / file, edit)
    assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err, (fragment, err)


def test_unedited_traces_read_back(trace_dir, tmp_path):
    assert main(["rate", "--traces", str(trace_dir), "--out", str(tmp_path), "--quiet"]) in (0, 1)


def test_labels_equal_as_text_are_rejected(ex1_cfg, tmp_path):
    world = ex1_cfg.world
    world = dataclasses.replace(world, state_space=StateSpace((1, "1", 3), world.true_state_index))
    write_trace_csvs(small_run(ex1_cfg, horizon=5), world, tmp_path)
    with pytest.raises(ValidationError, match="not distinct as text"):
        read_trace_csvs(tmp_path, world)
