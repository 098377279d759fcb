import csv
import hashlib
import json
import math

import numpy as np
import pytest

from gossip_learning import cli, example1, graph
from gossip_learning.analysis import rate_report
from gossip_learning.cli import main
from gossip_learning.config import load_config, parse_config_dict
from gossip_learning.graph import stationary_distribution
from gossip_learning.simulator import read_trace, run, run_replications
from tests.test_analysis import fitted_rate


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
        (lambda c: c["analysis"].update(rate_rel_tolerance=10**400),
         f"analysis.rate_rel_tolerance: expected a number, got {10**400}"),
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
            "float agent count", "bool agent count", "short prior", "tolerance beyond float",
            "no rate agents", "no check states",
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
        assert [(e["replication"], e["file"]) for e in manifest["traces"]] == [(0, "rep000.npz"), (1, "rep001.npz")]
        for e in manifest["traces"]:
            assert hashlib.sha256((out / e["file"]).read_bytes()).hexdigest() == e["sha256"]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "rep000.npz", "rep001.npz"]
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
        assert sorted(map(str, a)) == ["manifest.json", "rep000.npz", "rep001.npz"]
        assert a == b

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("x", encoding="utf-8")
        code = main(["run", "--out", str(blocker / "sub"), "--horizon", "5", "--quiet"])
        assert code == 3
        assert "I/O error" in capsys.readouterr().err

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
        # canonical config writes and rate --traces reads back
        raw = example1.config_dict(horizon=200, replications=2)
        raw["world"].update(states=[1], likelihoods=[{"agent": a, "table": [[0.5, 0.5]]} for a in range(1, 9)])
        del raw["analysis"]
        traces = tmp_path / "tr"
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(traces), "--quiet"]) == 0
        assert json.loads((traces / "manifest.json").read_text())["config"]["analysis"]["check_states"] == []
        assert main(["rate", "--traces", str(traces), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert (tmp_path / "o" / "rate_report.csv").read_text() == "check_state,theoretical,agent,empirical,stderr\n"

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


class TestExample1:
    def test_pipeline_exit_code(self, example1_report):
        code, _ = example1_report
        assert code == 0

    def test_report_directory_contents(self, example1_report):
        _, out = example1_report
        for name in ("manifest.json", "rate_report.csv", "fig2_agent2_beliefs.csv",
                     "fig3_diff_3_8.csv", "occupancy.csv"):
            assert (out / name).is_file()
        assert sorted(p.name for p in out.glob("rep*.npz")) == [f"rep{r:03d}.npz" for r in range(20)]
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
        entry = json.loads((out / "manifest.json").read_text())["traces"][0]
        back = read_trace(out / entry["file"], entry["sha256"], ex1_cfg.selection, ex1_cfg.world, ex1_cfg.simulation)
        fresh = run(ex1_cfg.network, ex1_cfg.selection, ex1_cfg.world, ex1_cfg.simulation, replication=0)
        for (agent, check) in [(1, 1), (7, 2)]:
            r_back = fitted_rate(back, ex1_cfg.world, agent, check, (1000, 5000))
            r_fresh = fitted_rate(fresh, ex1_cfg.world, agent, check, (1000, 5000))
            assert r_back == pytest.approx(r_fresh, rel=1e-9)

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
