"""Command-line entry point.

Subcommands: check (structure + identifiability verdict), run (traces +
manifest), rate (theoretical vs fitted decay rates), example1 (the built-in
benchmark end to end). Exit codes are a stable contract: 0 success, 1 negative
analytic verdict, 2 invalid input or config, 3 I/O failure, 4 internal error
(a defect of the program, reported as one line). Output location
comes from --out, else the GOSSIP_LEARNING_OUT environment variable, else
./gossip_learning_out. All outputs are deterministic for a given config: CSVs,
the manifest and the traces carry no timestamps, so reruns are
byte-identical. run writes one repNNN.trace per replication (its four
arrays as NPY arrays back to back) and a manifest.json that records each
file's SHA-256; rate --traces checks the manifest, then reads, checks and
fits one file at a time in replication order, naming a digest mismatch
before any other fault of the file, so its faults come in that order; a
directory of the repNNN.npz files of earlier versions exits 2, asking for
the traces to be made again. example1 writes its traces as run does, then
reads replication 0 back from rep000.trace by that same checked read and
makes its figures from the stored trace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Iterator

import numpy as np

from . import example1
from .analysis import (
    RateReport,
    belief_difference,
    fit_rates,
    log_ratios,
    occupancy,
    rate_report,
    window_snapshots,
    write_belief_difference,
    write_csv,
    write_occupancy,
    write_rate_report,
)
from .config import ExperimentConfig, load_config, parse_config_dict
from .errors import ValidationError
from .graph import is_strongly_connected, recurrent_classes, stationary_distribution
from .simulator import (
    SEED_DERIVATION,
    SimulationTrace,
    TraceWriter,
    matrix_fingerprint,
    read_trace,
    run_replications,  # noqa: F401 -- not called here; bench/ binds cli.run_replications by name
    simulate,
    world_fingerprint,
)
from .world import check_global_identifiability

OUT_ENV_VAR = "GOSSIP_LEARNING_OUT"
DEFAULT_OUT = "gossip_learning_out"

# replications simulated together, so a run holds at most this many trace
# files open (a common limit on open files is 1024)
GROUP_REPLICATIONS = 64

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INVALID = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _say(quiet: bool):
    def emit(msg: str = "") -> None:
        if not quiet:
            print(msg)

    return emit


def _resolve_out(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    return Path(DEFAULT_OUT)


def _resolve_config(args) -> ExperimentConfig:
    overrides = {k: getattr(args, k) for k in ("seed", "horizon", "replications") if getattr(args, k) is not None}
    if args.config is not None:
        return load_config(args.config, overrides)
    # no file given: fall back to the built-in benchmark scenario
    return parse_config_dict(example1.config_dict(**overrides))


def _format_agents(indices) -> str:
    return "[" + ", ".join(str(i + 1) for i in indices) + "]"


def _check_report(cfg: ExperimentConfig, say) -> bool:
    say(f"strongly connected: {'yes' if is_strongly_connected(cfg.network) else 'no'}")
    rc = recurrent_classes(cfg.selection)
    for cls in rc.classes:
        say(f"recurrent class: {_format_agents(cls)}")
    say(f"transient agents: {_format_agents(rc.transient) if rc.transient else '[]'}")

    labels = cfg.world.state_space.states
    identifiable = True
    for cls in rc.classes:
        report = check_global_identifiability(cfg.world, cls)
        say(f"witnesses within class {_format_agents(cls)}:")
        for state_idx, agents in report.witnesses:
            found = _format_agents(agents) if agents else "none"
            say(f"  state {labels[state_idx]}: agents {found}")
        identifiable = identifiable and report.identifiable
    say(f"identifiable: {'yes' if identifiable else 'no'}")
    return identifiable


def cmd_check(args) -> int:
    cfg = _resolve_config(args)
    ok = _check_report(cfg, _say(args.quiet))
    return EXIT_OK if ok else EXIT_VERDICT


def _trace_name(r: int) -> str:
    """The name of the file run writes replication r's trace to."""
    return f"rep{r:03d}.trace"


def _derived_fields(cfg: ExperimentConfig) -> dict:
    """The manifest fields run derives from the config, fingerprints first."""
    return {
        "world_fingerprint": world_fingerprint(cfg.world),
        "matrix_fingerprint": matrix_fingerprint(cfg.selection),
        "master_seed": cfg.simulation.seed,
        "replications": cfg.simulation.replications,
        "seed_derivation": SEED_DERIVATION,
    }


def _simulate_streamed(cfg: ExperimentConfig, out: Path | None, say, windows: bool = False) -> tuple[list, list]:
    """Simulate every replication of cfg, at most GROUP_REPLICATIONS at a
    time, and take each block of belief snapshots as it is made, holding no
    run's full snapshot array.

    Returns (digests, fit windows): with out, replication r is written to
    out/repNNN.trace and digests lists the files' SHA-256; with windows, the
    fit windows are one (snapshot times, log ratios) pair a replication for
    fit_rates, the log_ratios of the analysis check states and agents inside
    the analysis window. Each block's window rows go through log_ratios
    straight into one held (R, check states, agents, m) array."""
    sim, world, a = cfg.simulation, cfg.world, cfg.analysis
    times = sim.snapshot_times()
    k, R = world.num_states, sim.replications
    inside = window_snapshots(times, a.window, sim.horizon) if windows else slice(0, 0)
    held = np.empty((R, len(a.check_state_indices), len(a.agent_indices), inside.stop - inside.start))
    digests = []
    for g0 in range(0, R, GROUP_REPLICATIONS):
        reps = range(g0, min(g0 + GROUP_REPLICATIONS, R))
        signals, selections, blocks = simulate(cfg.network, cfg.selection, world, sim, reps)
        with ExitStack() as files:
            writers = []
            if out is not None:
                out.mkdir(parents=True, exist_ok=True)
                writers = [files.enter_context(TraceWriter(out / _trace_name(r), signals[b], selections[b], times, k))
                           for b, r in enumerate(reps)]
            for slot, rows in blocks:
                for writer, rep_rows in zip(writers, rows):
                    writer.write(rep_rows)
                lo, hi = max(slot, inside.start), min(slot + rows.shape[1], inside.stop)
                if lo < hi:
                    log_ratios(rows[:, lo - slot:hi - slot], world.true_state_index, a.check_state_indices,
                               a.agent_indices, out=held[g0:reps.stop, ..., lo - inside.start:hi - inside.start])
            for r, writer in zip(reps, writers):
                digests.append(writer.close())
                say(f"wrote {out / _trace_name(r)}")
    window_times = times[inside]
    return digests, [(window_times, ratios) for ratios in held] if windows else []


def _write_manifest(cfg: ExperimentConfig, out: Path, digests: list, say, extra_files: dict | None = None) -> None:
    manifest = {"config": cfg.canonical_dict(), **_derived_fields(cfg), "traces": digests}
    if extra_files:
        manifest.update(extra_files)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    say(f"wrote {out / 'manifest.json'}")


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = _resolve_out(args)
    say = _say(args.quiet)
    _write_manifest(cfg, out, _simulate_streamed(cfg, out, say)[0], say)
    return EXIT_OK


def _load_traces_dir(traces_dir: Path) -> tuple[ExperimentConfig, Iterator[SimulationTrace]]:
    """The config of a trace directory, checked against its manifest at
    once, and its traces, each read and checked only as it is taken."""
    manifest_path = traces_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ValidationError(
            f"no manifest.json in {traces_dir}; generate traces with the run command first"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: not valid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past Python's digit limit, deep nesting
        raise ValidationError(f"{manifest_path}: cannot be decoded: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValidationError(f"{manifest_path}: expected an object, got {type(manifest).__name__}")
    for key in ("config", "traces", "world_fingerprint", "matrix_fingerprint", "master_seed"):
        if key not in manifest:
            raise ValidationError(f"{manifest_path}: missing key {key!r}")
    digests = manifest["traces"]
    if not isinstance(digests, list) or not all(isinstance(d, str) for d in digests):
        raise ValidationError(
            f"{manifest_path}: its traces are not listed as one SHA-256 digest per replication "
            "(a trace layout of earlier versions); regenerate the traces with the run command"
        )
    try:
        cfg = parse_config_dict(manifest["config"])
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from exc
    names = {"world_fingerprint": "world fingerprint", "matrix_fingerprint": "selection-matrix fingerprint"}
    for key, value in _derived_fields(cfg).items():
        # as run writes it: 42.0 is not the seed 42, nor true the count 1
        if (type(manifest.get(key)), manifest.get(key)) != (type(value), value):
            raise ValidationError(f"{manifest_path}: {names.get(key, key)} does not match its config")
    # entry k is the digest of replication k's file
    count = cfg.simulation.replications
    if len(digests) != count:
        raise ValidationError(f"{manifest_path}: traces lists {len(digests)} digest(s), "
                              f"but its config has {count} replication(s)")
    if not (traces_dir / _trace_name(0)).exists() and (traces_dir / "rep000.npz").exists():
        raise ValidationError(f"{traces_dir}: holds .npz traces (a trace layout of earlier versions); "
                              "regenerate the traces with the run command")
    # read lazily, in replication order, so a fit takes one trace at a time
    traces = (read_trace(traces_dir / _trace_name(k), d, cfg.selection, cfg.world, cfg.simulation)
              for k, d in enumerate(digests))
    return cfg, traces


def _rate_verdict(cfg: ExperimentConfig, report: RateReport, out: Path, say) -> int:
    a = cfg.analysis
    labels = cfg.world.state_space.states
    tol = a.rate_rel_tolerance
    say(f"window [{a.window[0]}, {a.window[1]}], {report.replications} replication(s), tolerance {tol:.0%}")
    for k, cs in enumerate(a.check_state_indices):
        rows = report.rows[k * len(a.agent_indices):(k + 1) * len(a.agent_indices)]
        say(f"state {labels[cs]}: theoretical rate {rows[0].theoretical!r} nats/round")
        # the rows of one state share whether it is separated, so all or none are checked
        if rows[0]._verdict(tol) is None:
            say("  warning: truth not identifiable from the weighted signals; no agent of positive "
                "stationary weight separates this state, so its tolerance check is skipped")
            continue
        for r in rows:
            say(f"  agent {r.agent + 1}: empirical {r.empirical:.6f} (stderr {r.stderr:.2e}), "
                f"rel err {r.rel_error:.1%} -> {'PASS' if r._verdict(tol) else 'FAIL'}")
    out.mkdir(parents=True, exist_ok=True)
    path = write_rate_report(report, cfg.world, out / "rate_report.csv")
    say(f"wrote {path}")
    ok = report.within(tol)
    say(f"verdict: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_rate(args) -> int:
    say = _say(args.quiet)
    out = _resolve_out(args)
    if args.traces is not None:
        if args.config is not None:
            raise ValidationError("pass either --config or --traces, not both")
        if args.seed is not None or args.horizon is not None or args.replications is not None:
            raise ValidationError("--seed/--horizon/--replications do not apply to stored traces")
        cfg, traces = _load_traces_dir(Path(args.traces))
    else:
        cfg, traces = _resolve_config(args), None
    if not cfg.analysis.check_state_indices:
        raise ValidationError("the world has one state, so it has no false state to check a rate on")
    a, pi = cfg.analysis, stationary_distribution(cfg.selection)
    if traces is None:
        windows = _simulate_streamed(cfg, None, say, windows=True)[1]
        report = fit_rates(windows, pi, cfg.world, a.check_state_indices, a.agent_indices)
    else:
        report = rate_report(traces, pi, cfg.world, a.check_state_indices, a.agent_indices, a.window)
    return _rate_verdict(cfg, report, out, say)


def cmd_example1(args) -> int:
    if args.config is not None:
        raise ValidationError("example1 always uses the built-in config; --config does not apply")
    say = _say(args.quiet)
    out = _resolve_out(args)
    cfg = _resolve_config(args)

    # the built-in world is identifiable whatever the seed, horizon and
    # replication count, the only values example1 lets an argument change
    say("== structure and identifiability ==")
    _check_report(cfg, say)

    say("== simulation ==")
    figures = ["fig2_agent2_beliefs.csv", "fig3_diff_3_8.csv", "occupancy.csv", "rate_report.csv"]
    digests, fit_windows = _simulate_streamed(cfg, out, say, windows=True)
    _write_manifest(cfg, out, digests, say, extra_files={"figures": sorted(figures)})
    world = cfg.world
    # the figures are made from replication 0 as stored, read back as rate --traces reads it
    trace0 = read_trace(out / _trace_name(0), digests[0], cfg.selection, world, cfg.simulation)

    # one row a (snapshot, state) pair, snapshot-major: each column goes in
    # as one flat list and write_csv makes the lines one at a time
    labels = world.state_space.states
    probs = np.exp(trace0.log_beliefs[:, example1.FIG2_AGENT - 1])
    write_csv(out / "fig2_agent2_beliefs.csv", ["t", "state", "prob"], [
        np.repeat(trace0.snapshot_times, len(labels)).tolist(), list(labels) * len(probs), probs.ravel().tolist(),
    ])
    say(f"wrote {out / 'fig2_agent2_beliefs.csv'}")

    a3, a8 = (x - 1 for x in example1.FIG3_AGENTS)
    times, diffs = belief_difference(trace0, a3, a8, world.true_state_index)
    write_belief_difference(times, diffs, out / "fig3_diff_3_8.csv")
    say(f"wrote {out / 'fig3_diff_3_8.csv'}")

    pi = stationary_distribution(cfg.selection)
    occ = occupancy(trace0, a8, trace0.horizon, pi)
    write_occupancy(occ, out / "occupancy.csv")
    say(f"wrote {out / 'occupancy.csv'}")

    say("== rate comparison ==")
    report = fit_rates(fit_windows, pi, world, cfg.analysis.check_state_indices, cfg.analysis.agent_indices)
    return _rate_verdict(cfg, report, out, say)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossip-learn",
        description="Simulate gossip-style belief exchange on a directed network and "
        "verify the exponential learning rate against its closed form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, traces: bool = False) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON experiment config (default: built-in benchmark)")
        p.add_argument("--out", metavar="DIR", help=f"output directory (default: ${OUT_ENV_VAR} or ./{DEFAULT_OUT})")
        p.add_argument("--seed", type=int, metavar="N", help="override the master seed")
        p.add_argument("--replications", type=int, metavar="N", help="override the replication count")
        p.add_argument("--horizon", type=int, metavar="N", help="override the number of rounds")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if traces:
            p.add_argument("--traces", metavar="DIR", help="reuse traces previously written by 'run'")

    common(sub.add_parser("check", help="report structure, recurrent classes, identifiability"))
    common(sub.add_parser("run", help="simulate and write one .trace file per replication plus a manifest "
                                      "with their SHA-256 digests"))
    common(sub.add_parser("rate", help="compare empirical decay rates to the closed form"), traces=True)
    common(sub.add_parser("example1", help="run the built-in benchmark pipeline end to end"))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"check": cmd_check, "run": cmd_run, "rate": cmd_rate, "example1": cmd_example1}
    try:
        return handlers[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # a defect, never to be read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
