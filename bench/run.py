"""Benchmark of the gossip-learning toolkit, run from the root of a checkout.

    python3 bench/run.py --workload example1|replay|wide|all --seed N --seconds S --trace 0|1

Workloads (inputs are made from --seed; the reference digests in
reference.json hold for the default seed 42, other seeds are checked by
invariants and by rerun identity within the run):

- example1: ``gossip-learn example1`` at its documented defaults (n=8,
  20 replications x T=5000) through ``cli.main`` in-process. The paper's
  pipeline: about half simulation, half trace CSV writing.
- replay: ``gossip-learn rate --traces DIR``, DIR written in setup by
  ``gossip-learn run`` on the built-in config (T=5000, REPLAY_REPLICATIONS
  replications). Trace read plus rate fit, no simulation.
- wide: a generated 3000-agent world (bench/wide.py) through the library:
  parse, stationary distribution by power iteration, one replication of
  T=100, rate report, 64 walk-identity checks, occupancy, belief difference.

Each workload runs in fresh processes with BLAS/OpenMP threads pinned to 1:
SETUP_REPEATS setup processes, each in an empty work dir (import plus input
generation; setup_s is their median), then one process that repeats the op
for --seconds (at least twice) and checks every op's outputs. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced ops and
reports per-layer self times and counters (means over the traced ops, so
the self times add up to the mean traced op time) and the tracing overhead
(mean traced minus mean untraced op time). The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("example1", "replay", "wide")
# fresh setup processes per run, setup_s is their median; the import-only
# setups take a fraction of a second, so they repeat more
SETUP_REPEATS = {"example1": 7, "replay": 3, "wide": 7}
RUN_LIMIT_S = 170.0  # one workload's run must end within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = "1"

END_TO_END = {  # name -> unit
    "op_s": "s",
    "agent_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "config.parse_s": "s",
    "graph.recurrent_classes_s": "s",
    "graph.stationary_s": "s",
    "world.identifiability_s": "s",
    "simulator.run_s": "s",
    "simulator.us_per_agent_round": "us",
    "simulator.snapshot_mb": "MB-computed",
    "simulator.write_s": "s",
    "simulator.write_mb": "MB",
    "simulator.read_s": "s",
    "simulator.read_mb": "MB",
    "simulator.walk_identity_s": "s",
    "simulator.walk_identity_calls": "count",
    "analysis.rate_report_s": "s",
    "analysis.occupancy_s": "s",
    "analysis.belief_difference_s": "s",
    "analysis.write_s": "s",
    "cli.self_s": "s",
    "output_mb": "MB",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def _worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args[:3]))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args[:3])} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args[:3])} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up, run and check one workload; returns the result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    env = _child_env(root)
    work = root / ".bench_work" / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
    repeats = 1 if trace else SETUP_REPEATS[workload]  # a traced run reports no setup_s
    setups = []
    try:
        for i in range(repeats):
            shutil.rmtree(work, ignore_errors=True)  # every setup starts from an empty dir
            work.mkdir(parents=True)
            last = ["--reference"] if i == repeats - 1 else []
            setups.append(_worker(["setup"] + common + last, env, deadline)["setup_s"])
        budget = deadline - time.monotonic() - 10.0
        res = _worker(["ops"] + common + ["--seconds", str(seconds), "--trace", str(trace),
                                          "--budget", str(budget)], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for f in res["failures"] if f)
    if trace:
        layers = res["layers"]
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        values["output_mb"] = res["output_mb"]
        values["trace.overhead_s"] = statistics.fmean(res["traced_times"]) - statistics.fmean(res["op_times"])
        units = PER_LAYER
    else:
        op_s = statistics.median(res["op_times"])
        values = {
            "op_s": op_s,
            "agent_rounds_per_s": res["agent_rounds"] / op_s,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    record = {"workload": workload, "seed": seed, "trace": trace, "setup_times": setups, **res}
    records = root / ".bench_work" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": failed == 0,
        "attempted": len(res["failures"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "failures": [f for f in res["failures"] if f],
        "absent": res.get("absent", []),
        "env": res["env"],
    }


def _report(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} ops, env {json.dumps(result['env'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  failed_ops = {result['failed'] / result['attempted']!r} ({result['failed']}/{result['attempted']})")
    for name in result["absent"]:
        print(f"  absent: {name} (binding not found; its time counts toward its caller)")
    for op_failures in result["failures"]:
        for msg in op_failures:
            print(f"  check failed: {msg}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "gossip_learning" / "__init__.py").is_file():
        print(f"error: no src/gossip_learning under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
            _report(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
