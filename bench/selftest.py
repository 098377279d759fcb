"""Self-tests of the benchmark itself: the generator, every correctness
check against a corrupted artifact, and the self-time arithmetic.

    python3 bench/selftest.py        # from the root of a checkout, ~1 minute

Kept out of the repository's test suite on purpose: it runs the example1
pipeline at full size, and it tests the benchmark rather than the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import gossip_learning as gl  # noqa: E402
from gossip_learning import cli, example1  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import wide  # noqa: E402
import worker  # noqa: E402


def _work(name: str) -> Path:
    path = ROOT / ".bench_work" / f"selftest-{os.getpid()}" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tearDownModule():
    shutil.rmtree(ROOT / ".bench_work" / f"selftest-{os.getpid()}", ignore_errors=True)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(wide.canonical_bytes(wide.config_dict(7)), wide.canonical_bytes(wide.config_dict(7)))
        self.assertNotEqual(wide.canonical_bytes(wide.config_dict(7)), wide.canonical_bytes(wide.config_dict(8)))
        self.assertEqual(wide.identity_pairs(7, 64), wide.identity_pairs(7, 64))

    def test_config_is_valid_and_strongly_connected(self):
        raw = wide.config_dict(3)
        cfg = gl.parse_config_dict(raw)
        self.assertEqual(cfg.network.n, wide.N_AGENTS)
        self.assertGreater(cfg.network.n, gl.graph.DIRECT_SOLVE_LIMIT)
        self.assertTrue(gl.is_strongly_connected(cfg.network))
        degrees = [cfg.network.degree(i) for i in range(cfg.network.n)]
        self.assertEqual(min(degrees), wide.EXTRA_IN_NEIGHBOURS + 1)
        tables = np.array([lt.table for lt in cfg.world.likelihoods])
        self.assertTrue(np.all(tables > 0.0))


class Example1CheckTest(unittest.TestCase):
    """The reference digests hold at the default seed, and a flipped byte in
    rate_report.csv fails the check."""

    def test_reference_then_flipped_byte(self):
        out = _work("example1")
        rc = cli.main(["example1", "--out", str(out), "--quiet", "--seed", str(worker.REFERENCE_SEED)])
        expected = json.loads(worker.REFERENCE.read_text())["example1"]
        failures, digests = checks.example1_output(out, rc, expected)
        self.assertEqual(failures, [])
        self.assertEqual(digests, expected)

        path = out / "rate_report.csv"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        failures, _ = checks.example1_output(out, rc, expected)
        self.assertTrue(any("rate_report.csv digest" in f for f in failures), failures)


class ReplayCheckTest(unittest.TestCase):
    """The op reproduces the in-memory report; one dropped trace row fails it."""

    def test_dropped_trace_row(self):
        work = _work("replay")
        worker.replay_setup(5, work)
        worker.write_replay_reference(5, work)
        load = worker.Replay(5, work)
        out, fn = load.op(0)
        self.assertEqual(load.check(out, fn()), [])

        beliefs = work / "traces" / "rep000" / "beliefs.csv"
        lines = beliefs.read_text().splitlines(keepends=True)
        beliefs.write_text("".join(lines[:-1]))  # t=T, agent 8, last state
        out, fn = load.op(1)
        with contextlib.redirect_stderr(io.StringIO()):  # the CLI reports the zero belief
            rc = fn()
        self.assertNotEqual(load.check(out, rc), [])


class WideCheckTest(unittest.TestCase):
    """Identity, stationarity and digest hold on a clean trace; one perturbed
    snapshot entry fails the check."""

    def test_perturbed_snapshot(self):
        raw = example1.config_dict(horizon=200, replications=1, record_beliefs_every=10)
        cfg = gl.parse_config_dict(raw)
        pi = gl.stationary_distribution(cfg.selection)
        trace = gl.run(cfg.network, cfg.selection, cfg.world, cfg.simulation)
        pairs = [(i, s) for i in range(cfg.network.n) for s in (1, 2)]

        def residuals(tr):
            return [gl.verify_walk_identity(tr, cfg.world, i, 200, s) for i, s in pairs]

        failures, digest = checks.wide_output(raw, pi.pi, trace, residuals(trace), None)
        self.assertEqual(failures, [])
        self.assertEqual(checks.wide_output(raw, pi.pi, trace, residuals(trace), digest)[0], [])

        snaps = dict(trace.log_beliefs)
        snaps[200] = snaps[200].copy()
        snaps[200][1, 1] += 1e-6
        bad = dataclasses.replace(trace, log_beliefs=snaps)
        failures, _ = checks.wide_output(raw, pi.pi, bad, residuals(bad), digest)
        self.assertTrue(any("digest" in f for f in failures), failures)
        self.assertTrue(any("walk identity" in f for f in failures), failures)

    def test_non_stationary_vector_fails(self):
        raw = example1.config_dict()
        pi = gl.stationary_distribution(gl.parse_config_dict(raw).selection).pi.copy()
        self.assertLessEqual(checks.stationary_residual(raw, pi), checks.STATIONARY_TOL)
        pi[[0, 1]] += [1e-6, -1e-6]
        self.assertGreater(checks.stationary_residual(raw, pi), checks.STATIONARY_TOL)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        S = tracing.Span
        spans = [
            S("op", 0.0, 10.0, None, 0),
            S("run_replications", 1.0, 4.0, 0, 0),
            S("run", 2.0, 3.0, 1, 0),
            S("rate_report", 5.0, 9.0, 0, 0),
            S("occupancy", 8.0, 12.0, 0, 0),  # overlaps its sibling and overruns the root
        ]
        self.assertEqual(tracing.self_times(spans), [2.0, 2.0, 1.0, 4.0, 4.0])
        layers = tracing.layer_self_times(spans)
        self.assertEqual(layers["cli.self_s"], 2.0)
        self.assertEqual(layers["simulator.run_s"], 3.0)
        self.assertEqual(layers["analysis.rate_report_s"], 4.0)
        self.assertEqual(layers["graph.stationary_s"], 0.0)

    def test_traced_ops_partition_and_restore(self):
        out = _work("traced")
        original = cli.run_replications
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for _ in range(2):
                tracer.op(lambda: cli.main(["example1", "--out", str(out), "--quiet",
                                            "--replications", "2", "--horizon", "300"]))
        finally:
            tracer.uninstall()
        self.assertIs(cli.run_replications, original)
        self.assertEqual(tracer.absent, [])
        self.assertEqual(len(tracer.ops), 2)
        for spans, counts in zip(tracer.ops, tracer.counts):
            layers = tracing.layer_self_times(spans)
            root = spans[0]
            self.assertAlmostEqual(sum(layers.values()), root.end - root.start, delta=1e-9)
            for name in ("config.parse_s", "simulator.run_s", "simulator.write_s", "analysis.rate_report_s"):
                self.assertGreater(layers[name], 0.0, name)
            self.assertEqual(counts["agent_rounds"], 2 * 8 * 300)

    def test_missing_binding_is_absent(self):
        saved = cli.write_belief_difference
        del cli.write_belief_difference
        tracer = tracing.Tracer()
        try:
            tracer.install()
            tracer.uninstall()
        finally:
            cli.write_belief_difference = saved
        self.assertIn("write_belief_difference", tracer.absent)


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
