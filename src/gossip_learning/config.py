"""Experiment configuration: strict JSON schema, canonical serialization.

A config file has five sections: network, selection, world, simulation, and
an optional analysis block. Parsing is strict: unknown keys are rejected and
every diagnostic carries the field path it refers to. The loader checks the
JSON structure (objects, keys, arrays), the shape of an edge pair and its own
integer fields; the model types check numbers and the simulation integers,
and the loader puts the field path in front of their messages. Agent ids,
state labels, and edge endpoints are 1-based in files, converted to 0-based
indices at the boundary. The canonical form (aliases expanded, defaults
filled, edges sorted) round-trips: parsing it again yields the same canonical
form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ValidationError
from .graph import (
    DirectedNetwork,
    SelectionMatrix,
    custom_selection_matrix,
    uniform_selection_matrix,
)
from .simulator import SimulationConfig
from .world import Prior, StateSpace, WorldModel

DEFAULT_RATE_REL_TOLERANCE = 0.15


def _require_keys(obj: Any, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {type(obj).__name__}")
    for k in obj:
        if k not in required and k not in optional:
            raise ValidationError(f"{path}: unknown key {k!r}")
    for k in required:
        if k not in obj:
            raise ValidationError(f"{path}: missing required key {k!r}")
    return obj


def _as_int(v: Any, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {v}")
    return v


def _as_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {v!r}")
    return float(v)


def _as_label(v: Any, path: str):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValidationError(f"{path}: state labels must be integers or strings, got {v!r}")
    return v


def _as_list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        raise ValidationError(f"{path}: expected an array, got {type(v).__name__}")
    return v


@dataclass(frozen=True)
class AnalysisConfig:
    """Rate-check settings: which false states and agents to fit, over what
    window, against what relative tolerance. Indices are 0-based."""

    check_state_indices: tuple[int, ...]
    window: tuple[int, int]
    rate_rel_tolerance: float
    agent_indices: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    network: DirectedNetwork
    selection: SelectionMatrix
    selection_kind: str  # "uniform" | "explicit"
    world: WorldModel
    simulation: SimulationConfig
    analysis: AnalysisConfig

    def canonical_dict(self) -> dict:
        """Fully resolved 1-based form: aliases expanded, defaults filled."""
        sel: dict[str, Any] = {"kind": self.selection_kind}
        if self.selection_kind == "explicit":
            sel["rows"] = self.selection.to_dense().tolist()
        return {
            "network": {
                "n": self.network.n,
                "edges": sorted((self.network.edges + 1).tolist()),
            },
            "selection": sel,
            "world": {
                "states": list(self.world.state_space.states),
                "true_state": self.world.state_space.states[self.world.true_state_index],
                "prior": self.world.prior.nu.tolist(),
                "likelihoods": [
                    {"agent": i + 1, "table": self.world.likelihood(i).tolist()}
                    for i in range(self.world.n_agents)
                ],
            },
            "simulation": {
                "horizon": self.simulation.horizon,
                "seed": self.simulation.seed,
                "replications": self.simulation.replications,
                "record_beliefs_every": self.simulation.record_beliefs_every,
            },
            "analysis": {
                "check_states": [self.world.state_space.states[k] for k in self.analysis.check_state_indices],
                "window": list(self.analysis.window),
                "rate_rel_tolerance": self.analysis.rate_rel_tolerance,
                "agents": [a + 1 for a in self.analysis.agent_indices],
            },
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), indent=2, sort_keys=True) + "\n"


def _parse_network(raw: Any) -> DirectedNetwork:
    obj = _require_keys(raw, "network", ("n", "edges"))
    n = _as_int(obj["n"], "network.n")
    raw_edges = _as_list(obj["edges"], "network.edges")
    # the first edge that is not a pair of integers; the network checks the
    # edges before it, so the first faulty edge is the one named
    typed = len(raw_edges)
    for k, e in enumerate(raw_edges):
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            path = f"network.edges[{k}]"
            if not isinstance(e, list) or len(e) != 2:
                typed, fault = k, ValidationError(f"{path}: expected a [source, target] pair")
                break
            try:
                _as_int(e[0], f"{path}[0]")
                _as_int(e[1], f"{path}[1]")
            except ValidationError as exc:
                typed, fault = k, exc
                break
    try:
        net = DirectedNetwork(n=n, edges=tuple((j - 1, i - 1) for j, i in raw_edges[:typed]))
    except ValidationError as exc:
        raise ValidationError(f"network.{exc}") from exc
    if typed < len(raw_edges):
        raise fault
    return net


def _parse_selection(raw: Any, net: DirectedNetwork) -> tuple[SelectionMatrix, str]:
    obj = _require_keys(raw, "selection", ("kind",), ("rows",))
    kind = obj["kind"]
    if kind == "uniform":
        if "rows" in obj:
            raise ValidationError("selection: 'rows' only applies to kind 'explicit'")
        return uniform_selection_matrix(net), "uniform"
    if kind == "explicit":
        if "rows" not in obj:
            raise ValidationError("selection: kind 'explicit' requires 'rows'")
        rows = _as_list(obj["rows"], "selection.rows")
        try:
            return custom_selection_matrix(net, rows), "explicit"
        except ValidationError as exc:
            raise ValidationError(f"selection.rows: {exc}") from exc
    raise ValidationError(f"selection.kind: expected 'uniform' or 'explicit', got {kind!r}")


def _parse_likelihood_entry(raw: Any, path: str, n: int) -> tuple[int, list | str]:
    obj = _require_keys(raw, path, ("agent",), ("table", "like"))
    agent = _as_int(obj["agent"], f"{path}.agent", minimum=1)
    if agent > n:
        raise ValidationError(f"{path}.agent: {agent} exceeds the {n} agents in the network")
    if ("table" in obj) == ("like" in obj):
        raise ValidationError(f"{path}: exactly one of 'table' or 'like' is required")
    if "like" in obj:
        ref = obj["like"]
        if not (isinstance(ref, str) and ref.startswith("l_") and ref[2:].isdigit()):
            raise ValidationError(f"{path}.like: expected an 'l_<agent>' reference, got {ref!r}")
        return agent, ref
    return agent, _as_list(obj["table"], f"{path}.table")


def _parse_world(raw: Any, n: int) -> WorldModel:
    obj = _require_keys(raw, "world", ("states", "true_state", "prior", "likelihoods"))

    labels = [_as_label(s, f"world.states[{k}]") for k, s in enumerate(_as_list(obj["states"], "world.states"))]
    if not labels:
        raise ValidationError("world.states: at least one state is required")
    true_label = _as_label(obj["true_state"], "world.true_state")
    if true_label not in labels:
        raise ValidationError(f"world.true_state: {true_label!r} is not one of world.states")
    try:
        space = StateSpace(states=tuple(labels), true_state_index=labels.index(true_label))
    except ValidationError as exc:
        raise ValidationError(f"world.states: {exc}") from exc

    nu = obj["prior"]
    if nu == "uniform":
        nu = np.full(len(labels), 1.0 / len(labels))
    elif len(_as_list(nu, "world.prior")) != len(labels):
        raise ValidationError(f"world.prior: expected {len(labels)} entries, got {len(nu)}")
    try:
        prior = Prior(nu=nu)
    except ValidationError as exc:
        raise ValidationError(f"world.prior: {exc}") from exc

    entries = _as_list(obj["likelihoods"], "world.likelihoods")
    if len(entries) != n:
        raise ValidationError(f"world.likelihoods: expected one entry per agent ({n}), got {len(entries)}")
    tables: dict[int, list] = {}
    aliases: dict[int, tuple[str, str]] = {}  # agent -> (reference, path)
    for k, entry in enumerate(entries):
        path = f"world.likelihoods[{k}]"
        agent, table_or_ref = _parse_likelihood_entry(entry, path, n)
        if agent in tables or agent in aliases:
            raise ValidationError(f"{path}: duplicate entry for agent {agent}")
        if isinstance(table_or_ref, str):
            aliases[agent] = (table_or_ref, path)
        else:
            tables[agent] = table_or_ref
    missing = sorted(set(range(1, n + 1)) - set(tables) - set(aliases))
    if missing:
        raise ValidationError(f"world.likelihoods: no entry for agent(s) {missing}")
    explicit = set(tables)
    for agent, (ref, path) in aliases.items():
        target = int(ref[2:])
        if target not in explicit:
            raise ValidationError(
                f"{path}.like: {ref!r} must reference an agent with an explicit table"
            )
        tables[agent] = tables[target]

    try:
        return WorldModel.from_tables(space, prior, [tables[agent] for agent in range(1, n + 1)])
    except ValidationError as exc:
        raise ValidationError(f"world.likelihoods: {exc}") from exc


def _parse_simulation(raw: Any) -> SimulationConfig:
    obj = _require_keys(raw, "simulation", ("horizon", "seed"), ("replications", "record_beliefs_every"))
    try:
        return SimulationConfig(**obj)
    except ValidationError as exc:
        raise ValidationError(f"simulation: {exc}") from exc


def _parse_analysis(raw: Any, world: WorldModel, sim: SimulationConfig, n: int) -> AnalysisConfig:
    obj = _require_keys(raw, "analysis", (), ("check_states", "window", "rate_rel_tolerance", "agents"))
    labels = list(world.state_space.states)
    theta = world.true_state_index

    if "check_states" in obj:
        idx = []
        for k, s in enumerate(_as_list(obj["check_states"], "analysis.check_states")):
            label = _as_label(s, f"analysis.check_states[{k}]")
            if label not in labels:
                raise ValidationError(f"analysis.check_states[{k}]: {label!r} is not one of world.states")
            if labels.index(label) == theta:
                raise ValidationError(f"analysis.check_states[{k}]: {label!r} is the true state")
            idx.append(labels.index(label))
        if len(set(idx)) != len(idx):
            raise ValidationError("analysis.check_states: duplicate entries")
        check_states = tuple(idx)
    else:
        check_states = tuple(k for k in range(len(labels)) if k != theta)

    if "window" in obj:
        w = _as_list(obj["window"], "analysis.window")
        if len(w) != 2:
            raise ValidationError("analysis.window: expected [t_start, t_end]")
        t0 = _as_int(w[0], "analysis.window[0]", minimum=0)
        t1 = _as_int(w[1], "analysis.window[1]")
        if not (t0 < t1 <= sim.horizon):
            raise ValidationError(
                f"analysis.window: need t_start < t_end <= horizon ({sim.horizon}), got [{t0}, {t1}]"
            )
        window = (t0, t1)
    else:
        window = (sim.horizon // 5, sim.horizon)

    tol = _as_number(obj.get("rate_rel_tolerance", DEFAULT_RATE_REL_TOLERANCE), "analysis.rate_rel_tolerance")
    if not (0.0 < tol):
        raise ValidationError(f"analysis.rate_rel_tolerance: must be positive, got {tol}")

    if "agents" in obj:
        agents = []
        for k, a in enumerate(_as_list(obj["agents"], "analysis.agents")):
            a = _as_int(a, f"analysis.agents[{k}]", minimum=1)
            if a > n:
                raise ValidationError(f"analysis.agents[{k}]: {a} exceeds the {n} agents in the network")
            agents.append(a - 1)
        if len(set(agents)) != len(agents):
            raise ValidationError("analysis.agents: duplicate entries")
        agent_indices = tuple(agents)
    else:
        agent_indices = tuple(range(n))

    return AnalysisConfig(
        check_state_indices=check_states,
        window=window,
        rate_rel_tolerance=tol,
        agent_indices=agent_indices,
    )


def parse_config_dict(raw: Any) -> ExperimentConfig:
    """Validate a decoded JSON object against the experiment schema."""
    obj = _require_keys(raw, "config", ("network", "selection", "world", "simulation"), ("analysis",))
    net = _parse_network(obj["network"])
    selection, kind = _parse_selection(obj["selection"], net)
    world = _parse_world(obj["world"], net.n)
    sim = _parse_simulation(obj["simulation"])
    analysis = _parse_analysis(obj.get("analysis", {}), world, sim, net.n)
    return ExperimentConfig(
        network=net,
        selection=selection,
        selection_kind=kind,
        world=world,
        simulation=sim,
        analysis=analysis,
    )


def load_config(path: str | Path, overrides: dict[str, int] | None = None) -> ExperimentConfig:
    """Read, decode and validate a config file; errors carry the path.

    overrides (say {"seed": 7}) replace the file's simulation values before
    validation. When the horizon changes and the file never pinned a window,
    the default window is derived from the new horizon.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if overrides and isinstance(raw, dict) and isinstance(raw.get("simulation"), dict):
        raw["simulation"].update(overrides)
    try:
        return parse_config_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
