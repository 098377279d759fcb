"""Acceptance gate: one test per top-level criterion, each at its stated
tolerance, each ending in an explicit PASS line (run with `pytest -s` to see
them). The heavy simulation batches come from session fixtures in conftest."""

import filecmp

import numpy as np
import pytest

from gossip_learning import example1
from gossip_learning.cli import main
from gossip_learning.graph import DirectedNetwork, uniform_selection_matrix
from gossip_learning.simulator import (
    SimulationConfig,
    backward_walk,
    run,
    verify_walk_identity,
)
from gossip_learning.world import kl_divergence
from tests.test_analysis import RATE_CHECK_STATE_2, RATE_CHECK_STATE_3
from tests.test_cli import write_config
from tests.test_world import tiny_world

ORACLE_PI = np.array([1 / 6, 1 / 3, 1 / 4, 1 / 6, 1 / 12, 0.0, 0.0, 0.0])


def test_walk_identity_on_random_triples(trace_t2000, ex1_cfg):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(120):
        agent = int(rng.integers(0, 8))
        t = int(rng.integers(0, 2001))
        check = int(rng.integers(1, 3))
        res = verify_walk_identity(trace_t2000, ex1_cfg.world, agent, t, check)
        worst = max(worst, res)
        assert res <= 1e-8
    print(f"\nPASS: walk identity on 120 random (agent, t<=2000, state) triples; "
          f"max residual {worst:.3e} <= 1e-8")


def test_stationary_distribution_matches_oracle(ex1_pi, ex1_cfg):
    dev = float(np.max(np.abs(ex1_pi.pi - ORACLE_PI)))
    assert dev <= 1e-10
    residual = float(np.max(np.abs(ex1_pi.pi @ ex1_cfg.selection.to_dense() - ex1_pi.pi)))
    assert residual <= 1e-10
    print(f"\nPASS: stationary vector matches the linear-solve oracle "
          f"(max dev {dev:.2e}) and fixes the chain (residual {residual:.2e})")


def test_backward_walk_occupancy_at_1e5(trace_t100k, ex1_pi):
    t = 100_000
    worst = 0.0
    for start in range(8):
        walk = backward_walk(trace_t100k, start, t)
        freqs = np.bincount(walk[1:], minlength=8) / t
        worst = max(worst, float(np.max(np.abs(freqs - ex1_pi.pi))))
    assert worst <= 0.01
    print(f"\nPASS: walk occupancy at t=1e5 within +/-0.01 of the stationary "
          f"weights from every start agent (max dev {worst:.5f})")


def test_every_agent_learns_by_t5000(traces20_t5000, ex1_cfg):
    theta = ex1_cfg.world.true_state_index
    hits = 0
    for tr in traces20_t5000:
        final = np.exp(tr.log_beliefs[5000][:, theta])
        hits += bool(np.all(final >= 0.99))
    assert hits >= 19
    print(f"\nPASS: all 8 agents hold >= 0.99 belief on the true state at "
          f"T=5000 in {hits}/20 replications (needed >= 19)")


def test_rate_reproduction_within_15_percent(traces20_t5000, ex1_pi, ex1_cfg):
    from gossip_learning.analysis import rate_report

    report = rate_report(
        traces20_t5000, ex1_pi, ex1_cfg.world,
        check_states=[1, 2], agents=[1, 2, 7], window=(1000, 5000),
    )
    # rows by check state, then agent: check state 1 is rows 0-2, check state 2 rows 3-5
    assert report.rows[0].theoretical == pytest.approx(RATE_CHECK_STATE_2, rel=1e-12)
    assert report.rows[3].theoretical == pytest.approx(RATE_CHECK_STATE_3, rel=1e-12)
    worst = max(r.rel_error for r in report.rows)
    assert report.within(0.15)
    print(f"\nPASS: empirical decay rates for agents 2, 3, 8 and both false "
          f"states within 15% of theory over [1000, 5000] "
          f"(worst relative error {worst:.1%})")


def test_identifiability_verdict_and_flip(tmp_path, capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "state 2: agents [2]" in out
    assert "state 3: agents [1]" in out
    assert "identifiable: yes" in out

    flipped = example1.config_dict(horizon=10)
    flipped["world"]["likelihoods"][0] = {"agent": 1, "like": "l_3"}
    assert main(["check", "--config", write_config(tmp_path, flipped), "--quiet"]) == 1
    print("\nPASS: benchmark verdict identifiable with witnesses "
          "{state 2 -> agent 2, state 3 -> agent 1}; replacing agent 1's "
          "table flips the verdict (exit 1)")


def test_uninformative_agent_is_an_exact_fixed_point():
    w = tiny_world([[[0.25, 0.75]] * 3], prior=[0.5, 0.2, 0.3])
    net = DirectedNetwork(1, [])
    tr = run(net, uniform_selection_matrix(net), w, SimulationConfig(horizon=500, seed=8))
    first = tr.log_beliefs[0]
    for t in tr.snapshot_times:
        assert np.array_equal(tr.log_beliefs[t], first)
    assert np.allclose(np.exp(first[0]), [0.5, 0.2, 0.3], rtol=1e-15, atol=0)
    print("\nPASS: identical likelihood rows leave the belief bitwise constant "
          "in log space across 500 self-update rounds")


def test_kl_divergence_properties_on_1000_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        k = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        d = kl_divergence(p, q)
        assert d >= 0.0
        if np.max(np.abs(p - q)) > 1e-6:
            assert d > 1e-12
        assert kl_divergence(p, p) == 0.0
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2), rel=1e-15)
    print("\nPASS: KL nonnegative on 1000 random pairs, zero exactly at "
          "equality, and guard cases (zero entries, shared support) behave")


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    args = ["--horizon", "300", "--replications", "2", "--quiet"]
    assert main(["run", "--out", str(tmp_path / "a"), *args]) == 0
    assert main(["run", "--out", str(tmp_path / "b"), *args]) == 0
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files, "run produced no files"
    for rel in files:
        assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel
    print(f"\nPASS: two runs of the same config emitted {len(files)} "
          "byte-identical files")
