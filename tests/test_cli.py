import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gossip_learning import cli, example1, graph
from gossip_learning.analysis import (
    belief_difference,
    log_ratios,
    occupancy,
    rate_report,
    write_belief_difference,
    write_occupancy,
    write_rate_report,
)
from gossip_learning.cli import main
from gossip_learning.config import load_config, parse_config_dict
from gossip_learning.errors import ValidationError
from gossip_learning.graph import MAX_AGENTS, stationary_distribution
from gossip_learning.simulator import MAX_HORIZON, read_trace, run, run_replications
from tests.test_analysis import fitted_rate


def test_the_cli_loads_no_test_only_package():
    """numpy is the one runtime dependency: a fresh interpreter that imports
    the CLI has loaded none of the packages only the tests need."""
    code = "import json, sys, gossip_learning.cli; print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert "numpy" in loaded and "gossip_learning" in loaded
    assert loaded.isdisjoint({"scipy", "networkx", "hypothesis", "pytest"}), sorted(loaded)


def test_example1_leaves_numpy_ma_unimported(tmp_path):
    """A fresh interpreter that runs example1 end to end has not imported
    numpy.ma (np.unique imports it on its first call)."""
    code = ("import sys; from gossip_learning.cli import main; "
            f"assert main(['example1', '--out', {str(tmp_path)!r}, '--quiet']) == 0; "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def set_selection_entry(value):
    """An edit making the selection explicit (every agent picks itself) with
    value in agent 2's row."""
    def edit(c):
        rows = [[1.0 if j == i else 0.0 for j in range(8)] for i in range(8)]
        rows[1][0] = value
        c["selection"] = {"kind": "explicit", "rows": rows}
    return edit


def write_config(tmp_path, cfg_dict, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg_dict), encoding="utf-8")
    return str(path)


def one_state_world():
    """The built-in network with one state, and no analysis block."""
    raw = example1.config_dict(horizon=200, replications=2)
    raw["world"].update(states=[1], likelihoods=[{"agent": a, "table": [[0.5, 0.5]]} for a in range(1, 9)])
    del raw["analysis"]
    return raw


NO_FALSE_STATE = "error: the world has one state, so it has no false state to check a rate on\n"


def canonical_text(cfg):
    """A config's canonical form as the manifest writes it."""
    return json.dumps(cfg.canonical_dict(), indent=2, sort_keys=True)


@pytest.fixture(scope="module")
def example1_report(tmp_path_factory):
    """The built-in pipeline at its documented scale, run once."""
    out = tmp_path_factory.mktemp("example1_report")
    code = main(["example1", "--out", str(out), "--quiet"])
    return code, out


class TestCheck:
    def test_builtin_scenario_is_identifiable(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "strongly connected: no" in out
        assert "recurrent class: [1, 2, 3, 4, 5]" in out
        assert "transient agents: [6, 7, 8]" in out
        assert "state 2: agents [2]" in out
        assert "state 3: agents [1]" in out
        assert "identifiable: yes" in out

    def test_removing_the_lone_witness_flips_the_verdict(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["world"]["likelihoods"][0] = {"agent": 1, "like": "l_3"}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 1
        out = capsys.readouterr().out
        assert "state 3: agents none" in out
        assert "identifiable: no" in out

    def test_single_agent_no_edges(self, tmp_path, capsys):
        cfg = {
            "network": {"n": 1, "edges": []},
            "selection": {"kind": "uniform"},
            "world": {
                "states": [1, 2],
                "true_state": 1,
                "prior": "uniform",
                "likelihoods": [{"agent": 1, "table": [[0.3, 0.7], [0.7, 0.3]]}],
            },
            "simulation": {"horizon": 10, "seed": 0},
        }
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 0
        out = capsys.readouterr().out
        assert "recurrent class: [1]" in out
        assert "identifiable: yes" in out

    def test_quiet_suppresses_output(self, capsys):
        assert main(["check", "--quiet"]) == 0
        assert capsys.readouterr().out == ""


class TestConfigErrors:
    def test_invalid_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ nope", encoding="utf-8")
        assert main(["check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 1 column" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["worlds"] = {}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        assert "unknown key 'worlds'" in capsys.readouterr().err

    def test_unknown_nested_key_carries_field_path(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["world"]["likelihoods"][2]["tabel"] = []
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        assert "world.likelihoods[2]" in capsys.readouterr().err

    def test_zero_horizon_rejected(self, tmp_path, capsys):
        cfg = example1.config_dict()
        del cfg["analysis"]["window"]  # otherwise the window complains first
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--horizon", "0", "--out", str(tmp_path / "o")]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["network"].update(n=2**70), f"network.n: agent count must be <= {MAX_AGENTS}"),
        (lambda c: c["network"].update(n=MAX_AGENTS + 1), f"network.n: agent count must be <= {MAX_AGENTS}"),
        (lambda c: c["simulation"].update(horizon=2**62), f"simulation: horizon must be <= {MAX_HORIZON}"),
        (lambda c: c["simulation"].update(horizon=MAX_HORIZON + 1), f"simulation: horizon must be <= {MAX_HORIZON}"),
    ], ids=["2**70 agents", "one agent past the limit", "2**62 rounds", "one round past the limit"])
    def test_sizes_past_their_int64_limits_exit_2(self, edit, message, tmp_path, capsys):
        """An agent count whose edge keys overflow int64, or a horizon whose
        snapshot times no numpy array holds, is invalid input, refused before
        anything of its size is made."""
        cfg = example1.config_dict()
        edit(cfg)
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err

    def test_horizon_override_conflicts_with_pinned_window(self, tmp_path, capsys):
        path = write_config(tmp_path, example1.config_dict())
        assert main(["check", "--config", path, "--horizon", "100"]) == 2
        assert "window" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["check", "--config", "/no/such/file.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        # Python reads no integer literal of more than 4300 digits
        (lambda text: text.replace(b'"seed": 42', b'"seed": ' + b"1" * 5000),
         "{path}: config cannot be decoded: Exceeds the limit (4300 digits)"),
        (lambda text: text.replace(b'"prior": "uniform"', b'"prior": "\xff"'),
         "cannot read config {path}: 'utf-8' codec can't decode byte 0xff"),
        (lambda text: b"[" * 100_000, "{path}: config cannot be decoded: maximum recursion depth exceeded"),
    ], ids=["integer past the digit limit", "not UTF-8", "nesting past the recursion limit"])
    def test_undecodable_config_is_invalid_input(self, tmp_path, capsys, edit, message):
        path = tmp_path / "config.json"
        text = json.dumps(example1.config_dict(horizon=20)).encode()
        path.write_bytes(edit(text))
        assert path.read_bytes() != text
        assert main(["check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message.format(path=path)) and err.count("\n") == 1, err

    def test_alias_must_point_at_explicit_table(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["world"]["likelihoods"][4] = {"agent": 5, "like": "l_4"}  # l_4 is itself an alias
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        assert "explicit table" in capsys.readouterr().err

    def test_faulty_aliases_are_named_in_entry_order(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        likelihoods = cfg["world"]["likelihoods"]
        # entry 3 names agent 8 and entry 7 agent 4, each aliased to an alias
        likelihoods[3], likelihoods[7] = {"agent": 8, "like": "l_5"}, {"agent": 4, "like": "l_6"}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.endswith("config.json: world.likelihoods[3].like: 'l_5' must reference an agent "
                            "with an explicit table\n"), err

    def test_duplicate_agent_entry(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["world"]["likelihoods"][4]["agent"] = 4
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        assert "duplicate entry" in capsys.readouterr().err

    def test_selection_outside_neighborhood_names_1_based_agents(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        rows = [[0.0] * 8 for _ in range(8)]
        for i in range(8):
            rows[i][i] = 1.0
        rows[0] = [0.5, 0.5] + [0.0] * 6  # agent 1 observes only agent 3
        cfg["selection"] = {"kind": "explicit", "rows": rows}
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert ("selection.rows: agent 1 puts positive mass on agent 2, which is "
                "neither an in-neighbor of 1 nor 1 itself") in err

    def _explicit_selection(self, tmp_path, row2):
        cfg = example1.config_dict(horizon=10)
        rows = [[1.0 if j == i else 0.0 for j in range(8)] for i in range(8)]
        rows[1] = row2
        cfg["selection"] = {"kind": "explicit", "rows": rows}
        return write_config(tmp_path, cfg)

    def test_selection_row_sum_names_1_based_agent_and_plain_float(self, tmp_path, capsys):
        assert main(["check", "--config", self._explicit_selection(tmp_path, [0.5, 0.4] + [0.0] * 6)]) == 2
        assert "selection.rows: the row of agent 2 sums to 0.9, expected 1 within 1e-12" in capsys.readouterr().err

    def test_negative_selection_entry_names_1_based_agents(self, tmp_path, capsys):
        assert main(["check", "--config", self._explicit_selection(tmp_path, [-0.5, 1.5] + [0.0] * 6)]) == 2
        assert ("selection.rows: agent 2 has negative probability -0.5 of choosing agent 1"
                in capsys.readouterr().err)

    def test_zero_selection_row_names_1_based_agent(self, tmp_path, capsys):
        assert main(["check", "--config", self._explicit_selection(tmp_path, [0.0] * 8)]) == 2
        assert "selection.rows: the row of agent 2 has zero mass on every entry" in capsys.readouterr().err

    def test_likelihood_row_sum_names_agent_once_and_state_label(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["world"]["likelihoods"][1]["table"][2] = [0.5, 0.4]  # agent 2, state 3
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert ("world.likelihoods: agent 2: likelihood row for state 3 sums to 0.9, "
                "expected 1 within 1e-12") in err
        assert "agent 1" not in err

    def test_negative_likelihood_entry_names_state_and_signal(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=10)
        cfg["world"]["likelihoods"][1]["table"][1] = [1.5, -0.5]  # agent 2, state 2
        assert main(["check", "--config", write_config(tmp_path, cfg)]) == 2
        assert ("world.likelihoods: agent 2: negative likelihood entry -0.5 for state 2, signal 1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["world"].update(prior=[math.nan, 0.5, 0.5]),
         "world.prior: prior must be strictly positive on every state; entry 1 is nan"),
        (lambda c: c["world"]["likelihoods"][1]["table"][1].__setitem__(0, math.nan),
         "world.likelihoods: agent 2: likelihood row for state 2 sums to nan, expected 1 within 1e-12"),
        (lambda c: c["world"]["likelihoods"][1].update(table=[[0.5, 0.5], [1.0], [0.5, 0.5]]),
         "world.likelihoods: agent 2: likelihood table rows must be numbers, all rows of one length"),
        (lambda c: c["network"]["edges"].__setitem__(3, [2**70, 1]),
         f"network.edges[3]: [{2**70}, 1] has an endpoint outside 1..8"),
        (lambda c: c["network"].update(n=0), "network.n: agent count must be >= 1, got 0"),
        (lambda c: c["world"]["likelihoods"][1].update(table=[[0.5, 0.5]] * 3 + [[0.5, 0.4]]),
         "world.likelihoods: agent 2: table has 4 rows but there are 3 states"),
        (lambda c: c["world"]["likelihoods"][1].update(table=[[0.5, 0.5]] * 3 + [[1.5, -0.5]]),
         "world.likelihoods: agent 2: table has 4 rows but there are 3 states"),
        *((lambda c, v=v: c["world"]["likelihoods"][1]["table"][0].__setitem__(0, v),
           "world.likelihoods: agent 2: likelihood table rows must be numbers, all rows of one length")
          for v in (True, None, "0.5", 10**400)),
        *((lambda c, v=v: c["world"].update(prior=[v, 0.5, 0.5]), "world.prior: prior must be a vector of numbers")
          for v in (True, None, "0.5")),
        *((set_selection_entry(v), "selection.rows: the row of agent 2 is not a list of numbers")
          for v in (True, None, "0.5")),
        (lambda c: c["simulation"].update(horizon=20.5), "simulation: horizon must be an integer, got 20.5"),
        (lambda c: c["network"].update(n=8.0), "network.n: agent count must be an integer, got 8.0"),
        (lambda c: c["network"].update(n=True), "network.n: agent count must be an integer, got True"),
        (lambda c: c["world"].update(prior=[0.5, 0.5]), "world.prior: prior length 2 != 3 states"),
        (lambda c: c["world"].update(prior=[0.5, 0.4, 0.05]),
         "world.prior: prior sums to 0.9500000000000001, expected 1 within 1e-12"),
        # horizon 20 at stride 10 records t = 0, 10 and 20, so [5, 15] holds one
        (lambda c: (c["simulation"].update(record_beliefs_every=10), c["analysis"].update(window=[5, 15])),
         "analysis.window: need at least 2 belief snapshots inside [5, 15], got 1"),
        (lambda c: c["analysis"].update(window=[-1, 20]),
         "analysis.window: need a window of integers 0 <= t_start < t_end <= horizon (20), got [-1, 20]"),
        (lambda c: c["analysis"].update(window=[4, 21]),
         "analysis.window: need a window of integers 0 <= t_start < t_end <= horizon (20), got [4, 21]"),
        (lambda c: c["analysis"].update(rate_rel_tolerance=10**400),
         f"analysis.rate_rel_tolerance: expected a number, got {10**400}"),
        (lambda c: c["analysis"].update(rate_rel_tolerance=float("inf")),
         "analysis.rate_rel_tolerance: must be a positive finite number, got inf"),
        (lambda c: c["analysis"].update(agents=[]), "analysis.agents: at least one agent is required"),
        (lambda c: c["analysis"].update(check_states=[]),
         "analysis.check_states: at least one false state is required"),
        # str.isdigit() accepts a superscript two, which int() does not read
        (lambda c: c["world"]["likelihoods"][3].update(like="l_\u00b2"),
         "world.likelihoods[3].like: expected an 'l_<agent>' reference, got 'l_\u00b2'"),
        # int() reads no string of more than 4300 digits
        (lambda c: c["world"]["likelihoods"][3].update(like="l_" + "1" * 5000),
         f"world.likelihoods[3].like: {'l_' + '1' * 5000!r} must reference an agent with an explicit table"),
    ], ids=["NaN prior", "NaN likelihood", "ragged likelihood rows", "endpoint beyond int64", "zero agents",
            "extra likelihood row summing to 0.9", "extra likelihood row with a negative entry",
            "bool likelihood", "null likelihood", "string likelihood", "likelihood beyond float",
            "bool prior", "null prior", "string prior",
            "bool selection entry", "null selection entry", "string selection entry", "float horizon",
            "float agent count", "bool agent count", "short prior", "prior summing to 0.95",
            "window holding one snapshot", "negative window start", "window end past the horizon",
            "tolerance beyond float",
            "infinite tolerance", "no rate agents", "no check states",
            "alias to a superscript digit", "alias past the digit limit"])
    @pytest.mark.parametrize("command", ["check", "rate"])
    def test_bad_values_are_invalid_input_on_one_line(self, tmp_path, capsys, command, edit, message):
        cfg = example1.config_dict(horizon=20)
        edit(cfg)
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith(f"config.json: {message}\n")

    def test_several_recurrent_classes_are_named_1_based(self, tmp_path, capsys):
        cfg = example1.config_dict(horizon=20)
        cfg["network"] = {"n": 4, "edges": [[1, 2], [2, 1], [3, 4], [4, 3]]}
        cfg["world"]["likelihoods"] = cfg["world"]["likelihoods"][:4]
        del cfg["analysis"]
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", path]) == 1
        out = capsys.readouterr().out
        assert "recurrent class: [1, 2]" in out and "recurrent class: [3, 4]" in out
        assert main(["rate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "error: stationary distribution is not unique: 2 recurrent classes: {1, 2}, {3, 4}\n"
        )

    @pytest.mark.parametrize("command", ["check", "run", "rate"])
    def test_labels_equal_as_text_are_rejected(self, tmp_path, capsys, command):
        cfg = example1.config_dict(horizon=20)
        cfg["world"]["states"] = [1, "1", 3]
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith("config.json: world.states: state labels must be unique as text: 1 and '1' both read '1'\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", ["[]", '{"simulation": 5}'])
    def test_non_object_sections_are_invalid_input_with_overrides(self, tmp_path, capsys, text):
        path = tmp_path / "odd.json"
        path.write_text(text, encoding="utf-8")
        assert main(["check", "--config", str(path), "--seed", "3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_stationary_solver_failure_is_invalid_input(self, monkeypatch, tmp_path, capsys):
        # an off vector from the solver must trip the pi P = pi residual check
        monkeypatch.setattr(graph, "_direct_stationary", lambda sub: np.arange(1.0, sub.shape[0] + 1))
        code = main(["rate", "--horizon", "20", "--replications", "1", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "stationary solve residual" in err

    def test_a_residual_of_1e_6_is_a_failed_solve(self, ex1_cfg, monkeypatch, tmp_path, capsys):
        """The solver's vector moved by 1e-6 on two agents, summing to 1 still,
        leaves a pi P = pi residual near 1e-6: far above the 1e-10 the check
        allows, so rate exits 2 before it simulates."""
        solve = graph._direct_stationary
        shift = np.zeros(8)
        shift[:2] = 1e-6, -1e-6
        monkeypatch.setattr(graph, "_direct_stationary", lambda sub: solve(sub) + shift[:len(sub)])
        pi = solve(ex1_cfg.selection.to_dense()) + shift
        assert 1e-7 < np.max(np.abs(ex1_cfg.selection.vecmat(pi) - pi)) < 1e-5
        code = main(["rate", "--horizon", "20", "--replications", "1", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "stationary solve residual" in err, err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["world"].update(states=[1, 1.5, 3]),
         "world.states[1]: state labels must be integers or strings, got 1.5"),
        (lambda c: c["world"].update(states=[]), "world.states: at least one state is required"),
        (lambda c: c["world"].update(true_state=4), "world.true_state: 4 is not one of world.states"),
        (lambda c: c["selection"].update(rows=[[1.0]]), "selection: 'rows' only applies to kind 'explicit'"),
        (lambda c: c["selection"].update(kind="explicit"), "selection: kind 'explicit' requires 'rows'"),
        (lambda c: c["selection"].update(kind="foo"), "selection.kind: expected 'uniform' or 'explicit', got 'foo'"),
        (lambda c: c.update(selection={"kind": "explicit", "rows": [0.125] * 8}),
         "selection.rows: selection matrix must be a list of rows, each a list of numbers"),
        (lambda c: c["world"]["likelihoods"].pop(),
         "world.likelihoods: expected one entry per agent (8), got 7"),
        (lambda c: c["world"]["likelihoods"][3].update(table=[[0.5, 0.5]] * 3),
         "world.likelihoods[3]: exactly one of 'table' or 'like' is required"),
        (lambda c: c["analysis"].update(check_states=[4]), "analysis.check_states[0]: 4 is not one of world.states"),
        (lambda c: c["analysis"].update(check_states=[1]), "analysis.check_states[0]: 1 is the true state"),
        (lambda c: c["analysis"].update(check_states=[2, 2]), "analysis.check_states: duplicate entries"),
        (lambda c: c["analysis"].update(agents=[2, 2]), "analysis.agents: duplicate entries"),
        (lambda c: c["analysis"].update(agents=[0]), "analysis.agents[0]: agent 0 outside 1..8"),
        (lambda c: c["analysis"].update(agents=[2, 9]), "analysis.agents[1]: agent 9 outside 1..8"),
        (lambda c: c["analysis"].update(window=[1, 2, 3]),
         "analysis.window: need a window of two integers [t_start, t_end], got [1, 2, 3]"),
        (lambda c: c["analysis"].update(window=[1.5, 20]),
         "analysis.window: need a window of integers 0 <= t_start < t_end <= horizon (20), got [1.5, 20]"),
        (lambda c: c["analysis"].update(window=["a", 20]),
         "analysis.window: need a window of integers 0 <= t_start < t_end <= horizon (20), got ['a', 20]"),
    ], ids=["float state label", "no states", "true state not a state", "uniform selection with rows",
            "explicit selection without rows", "unknown selection kind", "flat selection rows",
            "a likelihood entry short", "table and like", "check state not a state", "check state the truth",
            "check state twice", "agent twice", "agent 0", "agent past n", "window of three",
            "float window start", "string window start"])
    def test_each_config_rule_exits_2_with_its_field_path(self, tmp_path, capsys, edit, message):
        cfg = example1.config_dict(horizon=20)
        edit(cfg)
        path = write_config(tmp_path, cfg)
        assert main(["check", "--config", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_a_defect_exits_4_on_one_line(self, monkeypatch, capsys):
        """An exception that is no input or I/O fault is a defect: it exits
        4, never 1, which only a verdict may give."""
        def fail(cfg, say):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_check_report", fail)
        assert main(["check", "--horizon", "20"]) == 4
        assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")


def config_paths(node, path=()):
    """The path (a tuple of keys and indices) of every value in a decoded
    JSON tree, node's own first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from config_paths(child, path + (key,))


EX1_PATHS = list(config_paths(example1.config_dict(horizon=20)))
ODD_VALUES = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.floats(), st.just(2**70),
                       st.lists(st.lists(st.integers(-1, 9), max_size=3), max_size=3))


@st.composite
def config_mutants(draw):
    """example1's config at horizon 20 with one key dropped or added, or one
    value swapped for an odd one."""
    raw = example1.config_dict(horizon=20)
    path = draw(st.sampled_from(EX1_PATHS))
    *parents, last = path or (None,)
    node = raw
    for key in parents:
        node = node[key]
    kind = draw(st.sampled_from(["drop", "add", "swap"]))
    if kind == "drop" and path:
        del node[last]
    elif kind == "add" and path and isinstance(node[last], dict):
        node[last][draw(st.sampled_from(["extra", "kind", "rows", "window"]))] = draw(ODD_VALUES)
    elif path:
        node[last] = draw(ODD_VALUES)
    else:
        raw = draw(ODD_VALUES)
    return raw


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=config_mutants())
def test_a_mutated_config_exits_with_a_documented_code(raw, tmp_path, capsys):
    """check on any mutant of a valid config exits 0, 1 with a negative
    verdict, or 2 with one error line, and never 4."""
    code = main(["check", "--config", write_config(tmp_path, raw)])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (code, err)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    assert ("identifiable: no" in out) == (code == 1), out


class TestRoundTrip:
    def test_builtin_config_round_trips_canonically(self, tmp_path):
        cfg = example1.config()
        text = canonical_text(cfg)
        (tmp_path / "canonical.json").write_text(text, encoding="utf-8")
        again = load_config(tmp_path / "canonical.json")
        assert canonical_text(again) == text

    def test_explicit_selection_and_prior_round_trip(self, tmp_path):
        raw = {
            "network": {"n": 2, "edges": [[1, 2], [2, 1]]},
            "selection": {"kind": "explicit", "rows": [[0.25, 0.75], [0.5, 0.5]]},
            "world": {
                "states": ["low", "high"],
                "true_state": "high",
                "prior": [0.4, 0.6],
                "likelihoods": [
                    {"agent": 1, "table": [[0.9, 0.1], [0.2, 0.8]]},
                    {"agent": 2, "like": "l_1"},
                ],
            },
            "simulation": {"horizon": 20, "seed": 5},
        }
        cfg = parse_config_dict(raw)
        text = canonical_text(cfg)
        (tmp_path / "canonical.json").write_text(text, encoding="utf-8")
        again = load_config(tmp_path / "canonical.json")
        assert canonical_text(again) == text
        assert np.array_equal(cfg.world.likelihood(1), cfg.world.likelihood(0))
        assert cfg.selection.to_dense()[0, 1] == 0.75


class TestRun:
    def test_writes_traces_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--horizon", "50", "--replications", "2", "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replications"] == 2
        # entry k is the SHA-256 of rep{k:03d}.trace
        assert manifest["traces"] == [hashlib.sha256((out / f"rep{k:03d}.trace").read_bytes()).hexdigest()
                                      for k in range(2)]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "rep000.trace", "rep001.trace"]
        # the benchmark's tables appear in the manifest exactly
        tables = manifest["config"]["world"]["likelihoods"]
        assert tables[0]["table"] == [[1 / 3, 2 / 3], [1 / 3, 2 / 3], [1 / 5, 4 / 5]]
        assert tables[1]["table"] == [[1 / 2, 1 / 2], [2 / 3, 1 / 3], [1 / 2, 1 / 2]]
        assert tables[2]["table"] == [[1 / 4, 3 / 4], [1 / 4, 3 / 4], [1 / 4, 3 / 4]]
        assert tables[7] == {"agent": 8, "table": tables[2]["table"]}

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["--horizon", "80", "--replications", "2", "--seed", "3", "--quiet"]
        assert main(["run", "--out", str(tmp_path / "a"), *args]) == 0
        assert main(["run", "--out", str(tmp_path / "b"), *args]) == 0
        # what diff -r compares: the same file names, each with the same bytes
        a, b = ({p.relative_to(tmp_path / d): p.read_bytes() for p in (tmp_path / d).rglob("*")} for d in "ab")
        assert sorted(map(str, a)) == ["manifest.json", "rep000.trace", "rep001.trace"]
        assert a == b

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x", encoding="utf-8")
        code = main(["run", "--out", str(blocker / "sub"), "--horizon", "5", "--quiet"])
        assert code == 3
        assert "I/O error" in capsys.readouterr().err

    def test_groups_of_replications_write_the_same_files(self, tmp_path, monkeypatch):
        # five replications simulated two at a time give one group's bytes,
        # and no more than two trace files are open at once
        args = ["run", "--horizon", "60", "--replications", "5", "--seed", "4", "--quiet"]
        assert main([*args, "--out", str(tmp_path / "one")]) == 0
        live, counts = set(), []

        class CountedWriter(cli.TraceWriter):
            def __init__(self, *args):
                super().__init__(*args)
                live.add(self)
                counts.append(len(live))

            def __exit__(self, *exc_info):
                super().__exit__(*exc_info)
                live.discard(self)

        monkeypatch.setattr(cli, "GROUP_REPLICATIONS", 2)
        monkeypatch.setattr(cli, "TraceWriter", CountedWriter)
        assert main([*args, "--out", str(tmp_path / "groups")]) == 0
        assert (counts, live) == ([1, 2, 1, 2, 1], set())
        one, groups = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in ("one", "groups"))
        assert len(one) == 6 and one == groups

    @pytest.mark.parametrize("command", ["run", "rate"])
    def test_a_long_run_holds_no_snapshot_array(self, tmp_path, command):
        """tracemalloc's peak over run and rate at 4 x 20000 rounds of the
        built-in world stays below half the 15.4 MB of their (R, m, n, k)
        snapshots: each block of snapshots is written, or cut to the fit
        window's agents, as it is made."""
        # a short run first, so lazy imports and caches are not counted
        assert main([command, "--horizon", "50", "--out", str(tmp_path / "warm"), "--quiet"]) in (0, 1)
        tracemalloc.start()
        try:
            assert main([command, "--horizon", "20000", "--replications", "4", "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 20001 * 8 * 3 * 8 / 2, peak

    def test_a_long_rate_run_holds_its_ratios_and_draws(self, tmp_path):
        """tracemalloc's peak over rate at 4 x 20000 rounds of the built-in
        world stays within 1.25 MiB of the (R, check states, agents, m_w)
        float64 log ratios it holds plus its one-byte draws. The slack covers
        a block's buffers (its (R, rounds, n, k) snapshot rows, index arrays
        and uniforms), the snapshot times and the fit's temporaries. Holding
        the (R, m_w, agents, k) log beliefs instead peaked 1.3 MB above it."""
        assert main(["rate", "--horizon", "50", "--out", str(tmp_path / "warm"), "--quiet"]) in (0, 1)
        tracemalloc.start()
        try:
            assert main(["rate", "--horizon", "20000", "--replications", "4", "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratios = 4 * 2 * 3 * (20000 - 4000 + 1) * 8  # check states {2, 3}, agents {2, 3, 8}, window [4000, 20000]
        draws = 4 * (20001 + 20000) * 8  # signals and selections, one byte each
        assert peak <= ratios + draws + 1.25 * 2**20, (peak, ratios + draws)

    def test_env_var_supplies_default_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("GOSSIP_LEARNING_OUT", str(target))
        assert main(["run", "--horizon", "5", "--replications", "1", "--quiet"]) == 0
        assert (target / "manifest.json").is_file()


class TestRate:
    def test_from_config_passes_at_moderate_scale(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["rate", "--out", str(out), "--horizon", "800", "--replications", "3", "--seed", "7"])
        assert code == 0
        text = capsys.readouterr().out
        assert "verdict: PASS" in text
        with (out / "rate_report.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # states {2,3} x agents {2,3,8}
        assert {r["agent"] for r in rows} == {"2", "3", "8"}

    def test_from_traces_matches_from_config(self, tmp_path):
        args = ["--horizon", "400", "--replications", "2", "--seed", "9"]
        assert main(["run", "--out", str(tmp_path / "tr"), *args, "--quiet"]) == 0
        code_traces = main(["rate", "--traces", str(tmp_path / "tr"), "--out", str(tmp_path / "r1"), "--quiet"])
        code_config = main(["rate", *args, "--out", str(tmp_path / "r2"), "--quiet"])
        assert code_traces == code_config
        r1 = (tmp_path / "r1" / "rate_report.csv").read_text()
        r2 = (tmp_path / "r2" / "rate_report.csv").read_text()
        for a, b in zip(csv.DictReader(r1.splitlines()), csv.DictReader(r2.splitlines())):
            assert float(a["empirical"]) == pytest.approx(float(b["empirical"]), rel=1e-9)
            assert a["check_state"] == b["check_state"] and a["agent"] == b["agent"]

    def test_verdict_lines_pair_each_row_with_its_agent(self, tmp_path, capsys):
        raw = example1.config_dict(horizon=400, replications=2)
        raw["analysis"]["agents"] = [8, 2, 3]
        assert main(["rate", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "o")]) in (0, 1)
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  agent ")]
        # each line's figures are those of a report fitted for its agent alone
        cfg = parse_config_dict(raw)
        traces = run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)
        pi, tol = stationary_distribution(cfg.selection), cfg.analysis.rate_rel_tolerance
        expected = []
        for cs in (1, 2):
            for agent in (8, 2, 3):
                r = rate_report(traces, pi, cfg.world, [cs], [agent - 1], cfg.analysis.window).rows[0]
                expected.append(f"  agent {agent}: empirical {r.empirical:.6f} (stderr {r.stderr:.2e}), "
                                f"rel err {r.rel_error:.1%} -> {'PASS' if r.rel_error <= tol else 'FAIL'}")
        assert lines == expected

    def test_missing_traces_dir_hints_at_run(self, tmp_path, capsys):
        assert main(["rate", "--traces", str(tmp_path / "nowhere"), "--quiet"]) == 2
        assert "run command" in capsys.readouterr().err

    def test_traces_flag_conflicts(self, tmp_path, capsys):
        assert main(["rate", "--traces", "x", "--config", "y"]) == 2
        assert "either" in capsys.readouterr().err
        assert main(["rate", "--traces", "x", "--seed", "1"]) == 2
        assert "do not apply" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("{", "not valid JSON: Expecting property name enclosed in double quotes"),
        ('{"traces": []}', "missing key 'config'"),
    ], ids=["not JSON", "no config"])
    def test_a_manifest_that_cannot_be_used_exits_2(self, tmp_path, capsys, text, message):
        (tmp_path / "manifest.json").write_text(text, encoding="utf-8")
        assert main(["rate", "--traces", str(tmp_path), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'manifest.json'}: {message}\n"

    def test_uninformative_world_warns_and_passes(self, tmp_path, capsys):
        cfg = {
            "network": {"n": 1, "edges": []},
            "selection": {"kind": "uniform"},
            "world": {
                "states": [1, 2],
                "true_state": 1,
                "prior": "uniform",
                "likelihoods": [{"agent": 1, "table": [[0.5, 0.5], [0.5, 0.5]]}],
            },
            "simulation": {"horizon": 50, "seed": 0},
        }
        code = main(["rate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "warning: truth not identifiable" in out

    @pytest.mark.parametrize("field, message", [
        ("agents", "analysis.agents: at least one agent is required"),
        ("check_states", "analysis.check_states: at least one false state is required"),
    ], ids=["agents", "check_states"])
    def test_empty_analysis_list_in_a_manifest_is_invalid_input(self, tmp_path, capsys, field, message):
        traces = tmp_path / "tr"
        assert main(["run", "--horizon", "200", "--replications", "2", "--out", str(traces), "--quiet"]) == 0
        manifest = json.loads((traces / "manifest.json").read_text())
        manifest["config"]["analysis"][field] = []
        (traces / "manifest.json").write_text(json.dumps(manifest))
        assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {traces / 'manifest.json'}: {message}\n"

    def test_one_state_world_keeps_its_empty_default(self, tmp_path, capsys):
        # no false state: check_states defaults to [], which the manifest's
        # canonical config writes and rate --traces reads back, and refuses
        traces = tmp_path / "tr"
        assert main(["run", "--config", write_config(tmp_path, one_state_world()), "--out", str(traces),
                     "--quiet"]) == 0
        assert json.loads((traces / "manifest.json").read_text())["config"]["analysis"]["check_states"] == []
        assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == NO_FALSE_STATE
        assert not (tmp_path / "o").exists()

    def test_one_state_world_exits_2_before_it_simulates(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("rate simulated a world with no false state")

        monkeypatch.setattr(cli, "simulate", refuse)
        path = write_config(tmp_path, one_state_world())
        assert main(["rate", "--config", path, "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert capsys.readouterr().err == NO_FALSE_STATE
        assert main(["check", "--config", path, "--quiet"]) == 0

    def test_check_and_rate_share_one_separability_rule(self, tmp_path, capsys):
        # agent 2, the lone witness for state 2, now tells it from the truth
        # by a divergence of 2e-14, below DISTINGUISH_TOL: check finds no
        # witness, and rate skips the state instead of failing its rows
        raw = example1.config_dict(horizon=2000, replications=4)
        raw["world"]["likelihoods"][1]["table"][1] = [0.5 + 1e-7, 0.5 - 1e-7]
        raw["analysis"]["check_states"] = [2]
        path = write_config(tmp_path, raw)
        assert main(["check", "--config", path]) == 1
        assert "  state 2: agents none\n" in capsys.readouterr().out
        assert main(["rate", "--config", path, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert ("state 2: theoretical rate 6.679841864828025e-15 nats/round\n"
                "  warning: truth not identifiable from the weighted signals;") in out
        assert "FAIL" not in out and "verdict: PASS" in out
        with (tmp_path / "o" / "rate_report.csv").open(newline="") as fh:
            assert {r["theoretical"] for r in csv.DictReader(fh)} == {"6.679841864828025e-15"}

    def test_string_labels_are_quoted_as_csv_writer_quotes_them(self, tmp_path):
        # labels holding a delimiter, a quote and a line break: the report is
        # the bytes csv.writer writes for the rows rate_report gives in memory
        raw = example1.config_dict(horizon=200, replications=2)
        states = ["a,b", 'say "hi"', "x\ny"]
        raw["world"].update(states=states, true_state="a,b")
        raw["analysis"]["check_states"] = states[1:]
        assert main(["rate", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "o"),
                     "--quiet"]) in (0, 1)
        cfg = parse_config_dict(raw)
        a = cfg.analysis
        report = rate_report(run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation),
                             stationary_distribution(cfg.selection), cfg.world,
                             list(a.check_state_indices), list(a.agent_indices), a.window)
        with (tmp_path / "ref.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check_state", "theoretical", "agent", "empirical", "stderr"])
            writer.writerows((states[r.check_state], r.theoretical, r.agent + 1, r.empirical, r.stderr)
                             for r in report.rows)
        written = (tmp_path / "o" / "rate_report.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert written.count(b'"x\ny",') == 3 and written.count(b'"say ""hi""",') == 3

    def test_exit_code_and_within_agree_on_a_zero_rate_state(self, tmp_path, capsys):
        # no recurrent agent tells state 2 from the truth, but transient
        # agent 8 does, so state 2's rows fit a decay against a rate of 0
        raw = example1.config_dict(horizon=400, replications=3)
        raw["world"]["likelihoods"][1] = {"agent": 2, "table": [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]}
        raw["world"]["likelihoods"][7] = {"agent": 8, "table": [[0.5, 0.5], [2 / 3, 1 / 3], [0.5, 0.5]]}
        code = main(["rate", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert "state 2: theoretical rate 0.0 nats/round\n  warning: truth not identifiable" in out
        cfg = parse_config_dict(raw)
        a = cfg.analysis
        report = rate_report(run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation),
                             stationary_distribution(cfg.selection), cfg.world,
                             list(a.check_state_indices), list(a.agent_indices), a.window)
        # rows by check state, then agent: check state 1 with agents [2, 3, 8] is rows 0-2
        assert report.rows[2].rel_error == np.inf
        assert (code, report.within(a.rate_rel_tolerance)) == (0, True)


@st.composite
def rate_configs(draw):
    """The built-in config at 2-40 rounds, 1-3 replications and a snapshot
    stride of 2-6; agent 1's table sometimes redrawn with zero entries; any
    check states and agents; a window from one snapshot time to a later one,
    often the first and the last."""
    horizon, stride = draw(st.integers(2, 40)), draw(st.integers(2, 6))
    raw = example1.config_dict(horizon=horizon, seed=draw(st.integers(0, 2**32)),
                               replications=draw(st.integers(1, 3)), record_beliefs_every=stride)
    times = sorted({*range(0, horizon + 1, stride), horizon})
    first = draw(st.one_of(st.just(0), st.integers(0, len(times) - 2)))
    last = draw(st.one_of(st.just(len(times) - 1), st.integers(first + 1, len(times) - 1)))
    raw["analysis"] = {
        "check_states": draw(st.lists(st.sampled_from([2, 3]), min_size=1, unique=True)),
        "agents": draw(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True)),
        "window": [times[first], times[last]],
    }
    if draw(st.booleans()):
        rows = [draw(st.lists(st.integers(0, 3), min_size=2, max_size=2).filter(any)) for _ in range(3)]
        raw["world"]["likelihoods"][0]["table"] = [[x / sum(w) for x in w] for w in rows]
    return raw


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=rate_configs())
def test_streamed_rate_rows_are_the_bits_of_rate_report(raw, tmp_path_factory, capsys):
    """rate fits the window rows it collects as the rounds run; rate_report
    fits the same rows of whole traces. Floats are written as their repr,
    so equal CSV files hold equal bits."""
    out = tmp_path_factory.mktemp("rate")
    code = main(["rate", "--config", write_config(out, raw), "--out", str(out / "o"), "--quiet"])
    err = capsys.readouterr().err
    cfg = parse_config_dict(raw)
    a = cfg.analysis
    traces = run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)
    try:
        report = rate_report(traces, stationary_distribution(cfg.selection), cfg.world,
                             list(a.check_state_indices), list(a.agent_indices), a.window)
    except ValidationError as exc:
        assert (code, err) == (2, f"error: {exc}\n")
        return
    assert (code, err) == (0 if report.within(a.rate_rel_tolerance) else 1, "")
    held = write_rate_report(report, cfg.world, out / "held.csv")
    assert (out / "o" / "rate_report.csv").read_bytes() == held.read_bytes()


def test_the_streamed_fit_holds_one_array_of_log_ratios():
    """rate and example1 hold exactly R x |check states| x |agents| x m_w
    float64 values for their fit: each replication's window is a row of one
    C-ordered array of log_ratios, filled block by block as the rounds run."""
    raw = example1.config_dict(horizon=300, replications=3)
    raw["analysis"].update(check_states=[3], agents=[8, 2, 3, 5])
    cfg = parse_config_dict(raw)
    a = cfg.analysis
    digests, windows = cli._simulate_streamed(cfg, None, lambda msg="": None, windows=True)
    held = windows[0][1].base
    assert digests == [] and held.shape == (3, 1, 4, 300 - 60 + 1) and held.dtype == np.float64
    assert held.flags.c_contiguous and all(ratios.base is held for _, ratios in windows)
    traces = run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)
    for (times, ratios), tr in zip(windows, traces):
        inside = tr.snapshot_times >= 60
        assert np.array_equal(times, tr.snapshot_times[inside])
        assert np.array_equal(ratios, log_ratios(tr.log_beliefs[inside], 0, a.check_state_indices, a.agent_indices))


class TestExample1:
    def test_pipeline_exit_code(self, example1_report):
        code, _ = example1_report
        assert code == 0

    def test_report_directory_contents(self, example1_report):
        _, out = example1_report
        for name in ("manifest.json", "rate_report.csv", "fig2_agent2_beliefs.csv",
                     "fig3_diff_3_8.csv", "occupancy.csv"):
            assert (out / name).is_file()
        assert sorted(p.name for p in out.glob("rep*.trace")) == [f"rep{r:03d}.trace" for r in range(20)]
        assert not any(p.is_dir() for p in out.iterdir())

    def test_agent2_learns_the_truth(self, example1_report):
        _, out = example1_report
        with (out / "fig2_agent2_beliefs.csv").open(newline="") as fh:
            rows = [r for r in csv.DictReader(fh)]
        final_t = max(int(r["t"]) for r in rows)
        final = {r["state"]: float(r["prob"]) for r in rows if int(r["t"]) == final_t}
        assert final_t == 5000
        assert final["1"] >= 0.99

    def test_core_and_leaf_agree_in_the_limit(self, example1_report):
        _, out = example1_report
        with (out / "fig3_diff_3_8.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["value"]) < 0.01

    def test_manifest_lists_figures_and_tables(self, example1_report):
        _, out = example1_report
        manifest = json.loads((out / "manifest.json").read_text())
        assert "fig2_agent2_beliefs.csv" in manifest["figures"]
        assert manifest["config"]["world"]["likelihoods"][0]["table"][2] == [1 / 5, 4 / 5]

    def test_emitted_traces_reparse_into_the_same_rates(self, example1_report, ex1_cfg):
        _, out = example1_report
        digest = json.loads((out / "manifest.json").read_text())["traces"][0]
        back = read_trace(out / "rep000.trace", digest, ex1_cfg.selection, ex1_cfg.world, ex1_cfg.simulation)
        fresh = run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, ex1_cfg.simulation, replication=0)
        for (agent, check) in [(1, 1), (7, 2)]:
            r_back = fitted_rate(back, ex1_cfg.world, agent, check, (1000, 5000))
            r_fresh = fitted_rate(fresh, ex1_cfg.world, agent, check, (1000, 5000))
            assert r_back == pytest.approx(r_fresh, rel=1e-9)

    def test_figures_are_those_of_replication_0_in_memory(self, tmp_path):
        """example1 makes its figures from rep000.trace as it reads it back; at
        a seed and horizon of their own they are the bytes that replication
        0 of an in-memory run gives."""
        assert main(["example1", "--seed", "1009", "--horizon", "150", "--replications", "2",
                     "--out", str(tmp_path / "cli"), "--quiet"]) in (0, 1)
        cfg = parse_config_dict(example1.config_dict(seed=1009, horizon=150, replications=2))
        tr = run(cfg.network, cfg.selection, cfg.world, cfg.simulation, replication=0)
        ref = tmp_path / "ref"
        labels = cfg.world.state_space.states
        probs = np.exp(tr.log_beliefs[:, example1.FIG2_AGENT - 1]).tolist()
        ref.mkdir()
        with (ref / "fig2_agent2_beliefs.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "state", "prob"])
            writer.writerows((t, label, p) for t, row in zip(tr.snapshot_times.tolist(), probs)
                             for label, p in zip(labels, row))
        a3, a8 = (x - 1 for x in example1.FIG3_AGENTS)
        write_belief_difference(*belief_difference(tr, a3, a8, cfg.world.true_state_index),
                                ref / "fig3_diff_3_8.csv")
        write_occupancy(occupancy(tr, a8, tr.horizon, stationary_distribution(cfg.selection)), ref / "occupancy.csv")
        for name in ("fig2_agent2_beliefs.csv", "fig3_diff_3_8.csv", "occupancy.csv"):
            assert (tmp_path / "cli" / name).read_bytes() == (ref / name).read_bytes(), name

    def test_selection_chain_is_partitioned_once(self, tmp_path, monkeypatch):
        # the connectivity line, the structure report and the stationary
        # solve share one Tarjan pass over the selection matrix
        configs, searched = [], []
        parse, tarjan = cli.parse_config_dict, graph._tarjan_sccs
        monkeypatch.setattr(cli, "parse_config_dict", lambda raw: configs.append(parse(raw)) or configs[-1])
        monkeypatch.setattr(graph, "_tarjan_sccs", lambda ptr, indices: searched.append(ptr) or tarjan(ptr, indices))
        assert main(["example1", "--out", str(tmp_path), "--quiet"]) == 0
        [cfg] = configs
        assert len(searched) == 1 and searched[0] is cfg.selection.indptr

    def test_config_flag_rejected(self, capsys):
        assert main(["example1", "--config", "x.json"]) == 2
        assert "built-in" in capsys.readouterr().err
