"""Command-line entry point.

Subcommands: check (structure + identifiability verdict), run (traces +
manifest), rate (theoretical vs fitted decay rates), example1 (the built-in
benchmark end to end). Exit codes are a stable contract: 0 success, 1 negative
analytic verdict, 2 invalid input or config, 3 I/O failure. Output location
comes from --out, else the GOSSIP_LEARNING_OUT environment variable, else
./gossip_learning_out. All outputs are deterministic for a given config: CSVs
and the manifest carry no timestamps and the .npz traces a fixed one, so
reruns are byte-identical. run writes one repNNN.npz per replication and a
manifest.json that records each file's SHA-256; rate --traces reads them
back only after checking those digests.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import example1
from .analysis import (
    belief_difference,
    occupancy,
    rate_report,
    write_belief_difference,
    write_csv,
    write_occupancy,
    write_rate_report,
)
from .config import ExperimentConfig, load_config, parse_config_dict
from .errors import ValidationError
from .graph import is_strongly_connected, recurrent_classes, stationary_distribution
from .simulator import matrix_fingerprint, read_trace, run_replications, world_fingerprint, write_trace
from .world import check_global_identifiability

OUT_ENV_VAR = "GOSSIP_LEARNING_OUT"
DEFAULT_OUT = "gossip_learning_out"

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INVALID = 2
EXIT_IO = 3


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


def _write_run_outputs(cfg: ExperimentConfig, out: Path, say, extra_files: dict | None = None) -> list:
    traces = run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for r, tr in enumerate(traces):
        path = out / f"rep{r:03d}.npz"
        entries.append({"replication": r, "file": path.name, "sha256": write_trace(tr, path)})
        say(f"wrote {path}")
    manifest = {
        "config": cfg.canonical_dict(),
        "master_seed": cfg.simulation.seed,
        "replications": cfg.simulation.replications,
        "seed_derivation": "SeedSequence(master_seed, spawn_key=(replication,)).spawn(2) -> Philox(signals), Philox(selections)",
        "world_fingerprint": world_fingerprint(cfg.world),
        "matrix_fingerprint": matrix_fingerprint(cfg.selection),
        "traces": entries,
    }
    if extra_files:
        manifest.update(extra_files)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    say(f"wrote {out / 'manifest.json'}")
    return traces


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = _resolve_out(args)
    _write_run_outputs(cfg, out, _say(args.quiet))
    return EXIT_OK


def _load_traces_dir(traces_dir: Path) -> tuple[ExperimentConfig, list]:
    manifest_path = traces_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ValidationError(
            f"no manifest.json in {traces_dir}; generate traces with the run command first"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{manifest_path}: not valid JSON: {exc.msg}") from exc
    if not isinstance(manifest, dict):
        raise ValidationError(f"{manifest_path}: expected an object, got {type(manifest).__name__}")
    for key in ("config", "traces", "world_fingerprint", "matrix_fingerprint", "master_seed"):
        if key not in manifest:
            raise ValidationError(f"{manifest_path}: missing key {key!r}")
    entries = manifest["traces"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and {"replication", "file", "sha256"} <= e.keys() for e in entries
    ):
        raise ValidationError(
            f"{manifest_path}: its traces are not listed as .npz files with SHA-256 digests "
            "(the CSV trace layout of earlier versions); regenerate the traces with the run command"
        )
    try:
        cfg = parse_config_dict(manifest["config"])
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from exc
    if world_fingerprint(cfg.world) != manifest["world_fingerprint"]:
        raise ValidationError(f"{manifest_path}: world fingerprint does not match its config")
    if matrix_fingerprint(cfg.selection) != manifest["matrix_fingerprint"]:
        raise ValidationError(f"{manifest_path}: selection-matrix fingerprint does not match its config")
    # one entry per replication of the config, in order, each file once
    count = cfg.simulation.replications
    files: set = set()
    for k, e in enumerate(entries):
        rep = e["replication"]
        if type(rep) is not int or rep != k or k >= count:
            expected = f"replication {k}" if k < count else f"no entry past replication {count - 1}"
            raise ValidationError(
                f"{manifest_path}: traces[{k}] lists replication {rep!r}, expected {expected}: "
                f"the entries must be replications 0..{count - 1} in order, each once"
            )
        name = e["file"]
        if not (isinstance(name, str) and name not in ("", "..") and Path(name).name == name):
            raise ValidationError(
                f"{manifest_path}: traces[{k}] lists file {name!r}, expected a bare file name in {traces_dir}"
            )
        if name in files:
            raise ValidationError(f"{manifest_path}: traces[{k}] lists file {name!r} a second time")
        files.add(name)
    if len(entries) < count:
        raise ValidationError(
            f"{manifest_path}: traces lists {len(entries)} replication(s), but its config has {count}; "
            f"replication {len(entries)} has no entry"
        )
    traces = [
        read_trace(traces_dir / e["file"], e["sha256"], cfg.selection, cfg.world, cfg.simulation)
        for e in entries
    ]
    return cfg, traces


def _rate_verdict(cfg: ExperimentConfig, traces: list, pi, out: Path, say) -> int:
    a = cfg.analysis
    report = rate_report(
        traces, pi, cfg.world,
        check_states=list(a.check_state_indices),
        agents=list(a.agent_indices),
        window=a.window,
    )
    labels = cfg.world.state_space.states
    say(f"window [{a.window[0]}, {a.window[1]}], {report.replications} replication(s), "
        f"tolerance {a.rate_rel_tolerance:.0%}")
    all_ok = True
    for cs in a.check_state_indices:
        theo = report.row(cs, a.agent_indices[0]).theoretical
        say(f"state {labels[cs]}: theoretical rate {theo!r} nats/round")
        if theo == 0.0:
            say("  warning: truth not identifiable from the weighted signals; rate is 0 "
                "and the tolerance check is skipped for this state")
            continue
        for ag in a.agent_indices:
            r = report.row(cs, ag)
            ok = r.rel_error <= a.rate_rel_tolerance
            all_ok = all_ok and ok
            say(f"  agent {ag + 1}: empirical {r.empirical:.6f} (stderr {r.stderr:.2e}), "
                f"rel err {r.rel_error:.1%} -> {'PASS' if ok else 'FAIL'}")
    out.mkdir(parents=True, exist_ok=True)
    path = write_rate_report(report, cfg.world, out / "rate_report.csv")
    say(f"wrote {path}")
    say(f"verdict: {'PASS' if all_ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_VERDICT


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
        cfg = _resolve_config(args)
        traces = run_replications(cfg.network, cfg.selection, cfg.world, cfg.simulation)
    return _rate_verdict(cfg, traces, stationary_distribution(cfg.selection), out, say)


def cmd_example1(args) -> int:
    if args.config is not None:
        raise ValidationError("example1 always uses the built-in config; --config does not apply")
    say = _say(args.quiet)
    out = _resolve_out(args)
    cfg = _resolve_config(args)

    say("== structure and identifiability ==")
    if not _check_report(cfg, say):
        return EXIT_VERDICT

    say("== simulation ==")
    figures = ["fig2_agent2_beliefs.csv", "fig3_diff_3_8.csv", "occupancy.csv", "rate_report.csv"]
    traces = _write_run_outputs(cfg, out, say, extra_files={"figures": sorted(figures)})

    trace0 = traces[0]
    world = cfg.world

    # rows are made one at a time as csv.writer writes them, so no table of
    # cells is held beside the traces
    labels = world.state_space.states
    probs = np.exp(trace0.log_beliefs[:, example1.FIG2_AGENT - 1]).tolist()
    write_csv(out / "fig2_agent2_beliefs.csv", ["t", "state", "prob"], (
        (t, label, p) for t, row in zip(trace0.snapshot_times, probs) for label, p in zip(labels, row)
    ))
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
    return _rate_verdict(cfg, traces, pi, out, say)


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
    common(sub.add_parser("run", help="simulate and write one .npz trace per replication plus a manifest "
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
