"""One phase of one benchmark run, in a fresh process started by run.py.

    python3 bench/worker.py setup --workload W --seed N --work DIR [--reference]
    python3 bench/worker.py ops   --workload W --seed N --work DIR --seconds S --budget B --trace 0|1

``setup`` times importing the package plus making the workload's inputs and
prints {"setup_s": ...}; with ``--reference`` it then also stores replay's
in-memory reference. ``ops`` runs the workload's op until ``--seconds``
have passed (at least MIN_OPS times, never past ``--budget``), checks every
op's outputs, and prints
one JSON object with the op times, failures, peak RSS and, with ``--trace
1``, per-layer self times. The last line of stdout is that JSON object.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup time counts from here: imports included

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gossip_learning as gl  # noqa: E402
from gossip_learning import cli, example1  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import wide  # noqa: E402

REFERENCE_SEED = 42
REFERENCE = Path(__file__).with_name("reference.json")
MIN_OPS = 2
REPLAY_REPLICATIONS = 4
IDENTITY_PAIRS = 64
EX1_AGENTS = example1.config_dict()["network"]["n"]


def _tree_mb(path: Path) -> float:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) / 1e6


def _reference(workload: str, seed: int):
    if seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())[workload]


# ---- example1: the CLI pipeline at its documented defaults -------------

class Example1:
    agent_rounds = EX1_AGENTS * example1.DEFAULT_HORIZON * example1.DEFAULT_REPLICATIONS

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.expected = _reference("example1", seed)

    def op(self, k: int):
        out = self.work / f"example1-op{k}"
        return out, lambda: cli.main(["example1", "--out", str(out), "--seed", str(self.seed), "--quiet"])

    def check(self, out: Path, rc: int) -> list[str]:
        failures, digests = checks.example1_output(out, rc, self.expected)
        if self.expected is None and len(digests) == len(checks.EXAMPLE1_DIGESTED):
            self.expected = digests  # later ops must rerun byte-identically
        return failures


# ---- replay: trace read plus rate fit, no simulation -------------------

def replay_setup(seed: int, work: Path) -> None:
    """Write the trace dir with the run command."""
    rc = cli.main(["run", "--out", str(work / "traces"), "--seed", str(seed),
                   "--replications", str(REPLAY_REPLICATIONS), "--quiet"])
    if rc != 0:
        raise SystemExit(f"setup: run exited {rc}")


def write_replay_reference(seed: int, work: Path) -> None:
    """The in-memory rate_report of the same traces, simulated again through
    the library, and the exit code its verdict implies, which the op must
    reproduce from the files."""
    cfg = example1.config(seed=seed, replications=REPLAY_REPLICATIONS)
    traces = gl.run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)
    a = cfg.analysis
    report = gl.rate_report(traces, gl.stationary_distribution(cfg.selection), cfg.world,
                            list(a.check_state_indices), list(a.agent_indices), a.window)
    labels = [str(s) for s in cfg.world.state_space.states]
    rows = [[labels[r.check_state], str(r.agent + 1), r.theoretical, r.empirical, r.stderr]
            for r in report.rows]
    rc = cli.EXIT_OK if report.within(a.rate_rel_tolerance) else cli.EXIT_VERDICT
    (work / "replay_reference.json").write_text(json.dumps({"rows": rows, "rc": rc}))


class Replay:
    agent_rounds = EX1_AGENTS * example1.DEFAULT_HORIZON * REPLAY_REPLICATIONS

    def __init__(self, seed: int, work: Path):
        self.traces = work / "traces"
        self.work = work
        ref = json.loads((work / "replay_reference.json").read_text())
        self.reference = {(cs, ag): (th, em, se) for cs, ag, th, em, se in ref["rows"]}
        self.expected_rc = ref["rc"]

    def op(self, k: int):
        out = self.work / f"replay-op{k}"
        return out, lambda: cli.main(["rate", "--traces", str(self.traces), "--out", str(out), "--quiet"])

    def check(self, out: Path, rc: int) -> list[str]:
        return checks.replay_output(out, rc, self.reference, self.expected_rc)


# ---- wide: a 3000-agent generated world through the library ------------

class Wide:
    agent_rounds = wide.N_AGENTS * wide.HORIZON

    def __init__(self, seed: int, work: Path):
        self.cfg = wide.config_dict(seed)
        self.pairs = wide.identity_pairs(seed, IDENTITY_PAIRS)
        self.expected = _reference("wide", seed)

    def _run(self):
        cfg = gl.parse_config_dict(self.cfg)
        pi = gl.stationary_distribution(cfg.selection)
        identifiable = gl.check_global_identifiability(cfg.world, range(cfg.network.n)).identifiable
        trace = gl.run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)[0]
        a, T = cfg.analysis, cfg.simulation.horizon
        gl.rate_report([trace], pi, cfg.world, list(a.check_state_indices), list(a.agent_indices), a.window)
        residuals = [gl.verify_walk_identity(trace, cfg.world, i, T, s) for i, s in self.pairs]
        gl.occupancy(trace, a.agent_indices[0], T, pi)
        gl.belief_difference(trace, a.agent_indices[0], a.agent_indices[1], cfg.world.true_state_index)
        self.result = (pi.pi, trace, residuals, identifiable)
        return 0

    def op(self, k: int):
        return None, self._run

    def check(self, out, rc: int) -> list[str]:
        pi, trace, residuals, identifiable = self.result
        del self.result
        failures, digest = checks.wide_output(self.cfg, pi, trace, residuals, self.expected)
        if not identifiable:
            failures.append("check_global_identifiability says the wide world is not identifiable")
        if self.expected is None:
            self.expected = digest  # later ops must rerun byte-identically
        return failures


WORKLOADS = {"example1": Example1, "replay": Replay, "wide": Wide}


def setup(args) -> dict:
    work = Path(args.work)
    if args.workload == "wide":
        wide.config_dict(args.seed)
        wide.identity_pairs(args.seed, IDENTITY_PAIRS)
    elif args.workload == "replay":
        replay_setup(args.seed, work)
    setup_s = time.perf_counter() - T0
    if args.reference and args.workload == "replay":
        write_replay_reference(args.seed, work)
    return {"setup_s": setup_s}


def environment() -> dict:
    """What the numbers depend on besides the code: cores, interpreter,
    numpy and its BLAS, last-level cache, pinned thread counts."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            caches[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "llc": f"L{max(caches)} {caches[max(caches)]}" if caches else "unknown",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _attempt(fn):
    """fn()'s result and None, or None and the traceback if it raises: an op
    that raises counts as failed instead of ending the run."""
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc(limit=-3)


def ops(args) -> dict:
    """Untraced ops, or with --trace 1 untraced and traced ops alternately,
    until --seconds have passed; stops early rather than overrun --budget."""
    work = Path(args.work)
    load = WORKLOADS[args.workload](args.seed, work)
    tracer = tracing.Tracer() if args.trace else None
    times, traced_times, failures, output_mb, layers = [], [], [], [], []
    start = time.perf_counter()
    for k in itertools.count():
        out, fn = load.op(k)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
            try:
                rc, error = _attempt(lambda: tracer.op(fn))
            finally:
                tracer.uninstall()
            root = tracer.ops[-1][0]
            traced_times.append(root.end - root.start)
            layers.append(_layer_metrics(tracer.ops[-1], tracer.counts[-1]))
        else:
            t = time.perf_counter()
            rc, error = _attempt(fn)
            times.append(time.perf_counter() - t)
        if out is not None:
            output_mb.append(_tree_mb(out))
        op_failures = [error] if error else load.check(out, rc)
        if traced and layers[-1]["partition_error"] > 1e-9:
            op_failures.append(f"layer self times miss the op time by {layers[-1]['partition_error']!r} s")
        failures.append(op_failures)
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        enough = len(times) >= MIN_OPS if tracer is None else bool(traced_times)
        if enough and (elapsed >= args.seconds or elapsed + max(times + traced_times) > args.budget):
            break
    result = {
        "op_times": times,
        "traced_times": traced_times,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "agent_rounds": load.agent_rounds,
        "output_mb": statistics.median(output_mb) if output_mb else 0.0,
        "env": environment(),
    }
    if tracer is not None:
        # means, not medians, so the layer self times add up to the mean traced op time
        result["layers"] = {m: statistics.fmean(d[m] for d in layers) for m in layers[0]}
        result["absent"] = sorted(set(tracer.absent))
        result["spans"] = tracer.record()
    return result


def _layer_metrics(spans: list, counts: dict) -> dict[str, float]:
    """Per-layer self times and counters of one traced op (spans[0] is its root)."""
    out = tracing.layer_self_times(spans)
    out["partition_error"] = abs(sum(out.values()) - (spans[0].end - spans[0].start))
    simulated = counts.get("agent_rounds", 0)
    out["simulator.us_per_agent_round"] = out["simulator.run_s"] * 1e6 / simulated if simulated else 0.0
    for name in ("snapshot_mb", "write_mb", "read_mb", "walk_identity_calls"):
        out[f"simulator.{name}"] = counts.get(name, 0)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("phase", choices=["setup", "ops"])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--budget", type=float, default=150.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", action="store_true")
    args = p.parse_args(argv)
    result = setup(args) if args.phase == "setup" else ops(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
