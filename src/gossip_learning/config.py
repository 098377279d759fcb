"""Experiment configuration: strict JSON schema, canonical serialization.

A config file has five sections: network, selection, world, simulation, and
an optional analysis block. Parsing is strict: unknown keys are rejected and
every diagnostic carries the field path it refers to. The loader checks the
JSON structure (objects, keys, arrays) and its own integer fields; the model
types check numbers, the agent count, the edges and the simulation integers,
and the loader puts the field path in front of their messages. A world is
read as whole arrays: the edge list as one (m, 2) integer array, and the
likelihood tables as one (agents, states, signals) array where every agent
has the same number of signals. Where such a read fails, the edges go to the
network as the file holds them, and the tables are walked one at a time, so
the first faulty edge or agent is named. Likelihood entries of the common
shape, {"agent": a, "table": [...]} for the agents 1..n in order, are read
whole; they are walked one at a time only to name a fault or to resolve
"like" aliases. Agent ids, state labels, and edge
endpoints are 1-based in files, converted to 0-based indices at the
boundary. The canonical form (aliases expanded, defaults filled, edges
sorted) round-trips: parsing it again yields the same canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .analysis import window_snapshots
from .arrays import float_array, int_array, is_integer
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


def _as_number(v: Any, path: str) -> float:
    x = float_array(v)
    if x is None or x.ndim != 0:
        raise ValidationError(f"{path}: expected a number, got {v!r}")
    return float(x)


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


def _parse_network(raw: Any) -> DirectedNetwork:
    obj = _require_keys(raw, "network", ("n", "edges"))
    raw_edges = _as_list(obj["edges"], "network.edges")
    pairs = int_array(raw_edges)
    # lists of two integers, none of them -2**63, which has no 0-based int64
    if (pairs is not None and pairs.shape == (len(raw_edges), 2) and set(map(type, raw_edges)) == {list}
            and pairs.min() > np.iinfo(np.int64).min):
        edges = pairs - 1
    else:
        # the network names the first faulty edge as the file holds it; one that is not a list is no pair
        edges = [[x - 1 if is_integer(x) else x for x in e] if isinstance(e, list) else None for e in raw_edges]
    try:
        return DirectedNetwork(n=obj["n"], edges=edges)
    except ValidationError as exc:
        raise ValidationError(f"network.{exc}") from exc


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


def _agent_index(v: Any, path: str, n: int) -> int:
    """A 1-based agent id, one of 1..n, as its 0-based index."""
    if not is_integer(v):
        raise ValidationError(f"{path}: expected an integer, got {v!r}")
    if not 1 <= v <= n:
        raise ValidationError(f"{path}: agent {v} outside 1..{n}")
    return int(v) - 1


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
    nu = [1.0 / len(labels)] * len(labels) if nu == "uniform" else _as_list(nu, "world.prior")
    try:
        prior = Prior(nu=nu)
        prior.check_states(space)
    except ValidationError as exc:
        raise ValidationError(f"world.prior: {exc}") from exc

    entries = _as_list(obj["likelihoods"], "world.likelihoods")
    if len(entries) != n:
        raise ValidationError(f"world.likelihoods: expected one entry per agent ({n}), got {len(entries)}")
    # entries {"agent": a, "table": [...]} for a = 1..n in order are read whole
    if all(type(e) is dict and e.keys() == {"agent", "table"} and type(e["agent"]) is int and e["agent"] == a
           and type(e["table"]) is list for a, e in enumerate(entries, 1)):
        tables = [e["table"] for e in entries]
    else:
        tables = _walk_likelihoods(entries, n)
    try:
        return WorldModel.from_tables(space, prior, tables)
    except ValidationError as exc:
        raise ValidationError(f"world.likelihoods: {exc}") from exc


def _walk_likelihoods(entries: list, n: int) -> list:
    """The n entries' tables in agent order, aliases resolved; the first
    faulty entry is named."""
    # slot a holds agent a + 1's table, or the index its alias names
    slots: list[list | int | None] = [None] * n
    for k, entry in enumerate(entries):
        path = f"world.likelihoods[{k}]"
        e = _require_keys(entry, path, ("agent",), ("table", "like"))
        agent = _agent_index(e["agent"], f"{path}.agent", n)
        if ("table" in e) == ("like" in e):
            raise ValidationError(f"{path}: exactly one of 'table' or 'like' is required")
        if "like" in e:
            ref = e["like"]
            digits = ref[2:] if isinstance(ref, str) and ref.startswith("l_") else ""
            if not (digits.isascii() and digits.isdigit()):
                raise ValidationError(f"{path}.like: expected an 'l_<agent>' reference, got {ref!r}")
            stripped = digits.lstrip("0")
            # an id longer than n's names no agent, and int() reads at most a few thousand digits
            value: list | int = int(stripped or 0) - 1 if len(stripped) <= len(str(n)) else -1
        else:
            value = _as_list(e["table"], f"{path}.table")
        if slots[agent] is not None:
            raise ValidationError(f"{path}: duplicate entry for agent {agent + 1}")
        slots[agent] = value
    # n entries, each a distinct agent of 1..n, fill every slot; the aliases
    # are checked in entry order, so the first faulty one is named
    for k, entry in enumerate(entries):
        target = slots[entry["agent"] - 1]
        if isinstance(target, int) and not (0 <= target < n and isinstance(slots[target], list)):
            raise ValidationError(f"world.likelihoods[{k}].like: {entry['like']!r} must reference an agent with an explicit table")
    return [slots[s] if isinstance(s, int) else s for s in slots]


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
        idx, listed = [], _as_list(obj["check_states"], "analysis.check_states")
        # [] is a one-state world's default, which its canonical form writes
        if not listed and len(labels) > 1:
            raise ValidationError("analysis.check_states: at least one false state is required")
        for k, s in enumerate(listed):
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

    window = _as_list(obj["window"], "analysis.window") if "window" in obj else [sim.horizon // 5, sim.horizon]
    try:
        window_snapshots(sim.snapshot_times(), window, sim.horizon)
    except ValidationError as exc:
        raise ValidationError(f"analysis.window: {exc}") from exc

    tol = _as_number(obj.get("rate_rel_tolerance", DEFAULT_RATE_REL_TOLERANCE), "analysis.rate_rel_tolerance")
    if not (0.0 < tol < np.inf):
        raise ValidationError(f"analysis.rate_rel_tolerance: must be a positive finite number, got {tol}")

    if "agents" in obj:
        listed = _as_list(obj["agents"], "analysis.agents")
        if not listed:
            raise ValidationError("analysis.agents: at least one agent is required")
        agents = [_agent_index(a, f"analysis.agents[{k}]", n) for k, a in enumerate(listed)]
        if len(set(agents)) != len(agents):
            raise ValidationError("analysis.agents: duplicate entries")
        agent_indices = tuple(agents)
    else:
        agent_indices = tuple(range(n))

    return AnalysisConfig(
        check_state_indices=check_states,
        window=(int(window[0]), int(window[1])),
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: config is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an integer past Python's digit limit, or deep nesting
        raise ValidationError(f"{path}: config cannot be decoded: {exc}") from exc
    if overrides and isinstance(raw, dict) and isinstance(raw.get("simulation"), dict):
        raw["simulation"].update(overrides)
    try:
        return parse_config_dict(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
