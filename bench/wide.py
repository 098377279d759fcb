"""Input generator for the ``wide`` workload.

Builds a plain config dict (the form a JSON config file holds), so the
benchmark op goes through ``parse_config_dict`` like any user config. The
graph is a directed ring, which makes it strongly connected, plus random
extra in-neighbours, so the selection chain has one recurrent class covering
every agent. With N_AGENTS above ``graph.DIRECT_SOLVE_LIMIT`` the stationary
solve takes the power-iteration path.

Only the standard library's ``random.Random`` is used, whose integer and
float streams are fixed across Python versions: the same seed gives the
same dict, byte for byte, as serialized by ``canonical_bytes``.
"""

from __future__ import annotations

import json
import random

N_AGENTS = 3000
EXTRA_IN_NEIGHBOURS = 3  # plus the ring edge: 4 in-neighbours each
STATES = [1, 2, 3, 4]
N_SIGNALS = 3
HORIZON = 100
RECORD_EVERY = 10
RATE_AGENTS = 8  # agents fitted by rate_report, drawn from the seed


def _table(rng: random.Random) -> list[list[float]]:
    rows = []
    for _ in STATES:
        raw = [0.05 + rng.random() for _ in range(N_SIGNALS)]
        total = sum(raw)
        row = [x / total for x in raw]
        # fold the rounding residue into the largest entry so the row sum
        # passes LikelihoodTable's 1e-12 check with room to spare
        big = row.index(max(row))
        row[big] += 1.0 - sum(row)
        rows.append(row)
    return rows


def config_dict(seed: int) -> dict:
    """The wide workload's config for one seed."""
    rng = random.Random(seed)
    n = N_AGENTS
    edges = [[i, i % n + 1] for i in range(1, n + 1)]  # ring: i observes i-1
    for target in range(1, n + 1):
        taken = {target, (target - 2) % n + 1}
        while len(taken) < EXTRA_IN_NEIGHBOURS + 2:
            source = rng.randrange(1, n + 1)
            if source not in taken:
                taken.add(source)
                edges.append([source, target])
    likelihoods = [{"agent": a, "table": _table(rng)} for a in range(1, n + 1)]
    agents = sorted(rng.sample(range(1, n + 1), RATE_AGENTS))
    return {
        "network": {"n": n, "edges": edges},
        "selection": {"kind": "uniform"},
        "world": {
            "states": list(STATES),
            "true_state": STATES[0],
            "prior": "uniform",
            "likelihoods": likelihoods,
        },
        "simulation": {
            "horizon": HORIZON,
            "seed": seed,
            "replications": 1,
            "record_beliefs_every": RECORD_EVERY,
        },
        "analysis": {"check_states": STATES[1:], "agents": agents},
    }


def canonical_bytes(cfg: dict) -> bytes:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()


def identity_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """(agent, false-state index) pairs, 0-based, for the walk-identity checks."""
    rng = random.Random(f"identity-pairs-{seed}")
    return [(rng.randrange(N_AGENTS), rng.randrange(1, len(STATES))) for _ in range(count)]
