"""Built-in 8-agent benchmark scenario.

Network of eight agents with three informative patterns: agent 1 separates
state 3 from the truth, agent 2 separates state 2, and everyone else shares
an uninformative table whose rows coincide. The chain's recurrent class is
{1..5}; agents 6, 7, 8 are transient (8 is a leaf two hops off the core).
True state is 1 and the common prior is uniform over {1, 2, 3}.
"""

from __future__ import annotations

from .config import ExperimentConfig, parse_config_dict

# [source, target] means the target observes the source (1-based ids)
EDGES = [
    [1, 2], [2, 5], [2, 3], [3, 4], [3, 1],
    [3, 6], [4, 2], [1, 7], [5, 4], [7, 8],
]

# rows are states 1..3, columns signal values 0/1
TABLE_AGENT_1 = [[1 / 3, 2 / 3], [1 / 3, 2 / 3], [1 / 5, 4 / 5]]
TABLE_AGENT_2 = [[1 / 2, 1 / 2], [2 / 3, 1 / 3], [1 / 2, 1 / 2]]
TABLE_AGENT_3 = [[1 / 4, 3 / 4], [1 / 4, 3 / 4], [1 / 4, 3 / 4]]

DEFAULT_HORIZON = 5000
DEFAULT_SEED = 42
DEFAULT_REPLICATIONS = 20

# the figure series track agent 2's belief and the agent 3 vs 8 gap
FIG2_AGENT = 2
FIG3_AGENTS = (3, 8)


def config_dict(
    horizon: int = DEFAULT_HORIZON,
    seed: int = DEFAULT_SEED,
    replications: int = DEFAULT_REPLICATIONS,
    record_beliefs_every: int = 1,
) -> dict:
    """The scenario as a plain config object (the form a JSON file would hold)."""
    return {
        "network": {"n": 8, "edges": [list(e) for e in EDGES]},
        "selection": {"kind": "uniform"},
        "world": {
            "states": [1, 2, 3],
            "true_state": 1,
            "prior": "uniform",
            "likelihoods": [
                {"agent": 1, "table": [list(r) for r in TABLE_AGENT_1]},
                {"agent": 2, "table": [list(r) for r in TABLE_AGENT_2]},
                {"agent": 3, "table": [list(r) for r in TABLE_AGENT_3]},
                {"agent": 4, "like": "l_3"},
                {"agent": 5, "like": "l_3"},
                {"agent": 6, "like": "l_3"},
                {"agent": 7, "like": "l_3"},
                {"agent": 8, "like": "l_3"},
            ],
        },
        "simulation": {
            "horizon": horizon,
            "seed": seed,
            "replications": replications,
            "record_beliefs_every": record_beliefs_every,
        },
        "analysis": {
            "check_states": [2, 3],
            "window": [horizon // 5, horizon],
            "agents": [2, 3, 8],
        },
    }


def config(
    horizon: int = DEFAULT_HORIZON,
    seed: int = DEFAULT_SEED,
    replications: int = DEFAULT_REPLICATIONS,
) -> ExperimentConfig:
    return parse_config_dict(config_dict(horizon, seed, replications))
