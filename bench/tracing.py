"""Spans around the calls into each layer, recorded from the benchmark side.

A span is (name, start, end, parent, op id). Spans are kept in memory and
written out when the benchmark ends. Calls are wrapped by rebinding the name
in the module that looks it up at call time: ``cli`` imports
``run_replications`` into its own namespace, ``run_replications`` finds
``simulator.run`` as a module global, and library users go through the
package namespace. A binding that no longer exists is reported as absent
rather than failing, so the benchmark survives refactors of the program.

Self time is a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

ROOT = "op"

# span name -> (metric its self time counts toward, bindings as (module, attribute))
LAYERS: dict[str, tuple[str, tuple[tuple[str, str], ...]]] = {
    "parse_config_dict": ("config.parse_s", (
        ("gossip_learning.cli", "parse_config_dict"),
        ("gossip_learning.example1", "parse_config_dict"),
        ("gossip_learning", "parse_config_dict"),
    )),
    "recurrent_classes": ("graph.recurrent_classes_s", (
        ("gossip_learning.cli", "recurrent_classes"),
        ("gossip_learning.graph", "recurrent_classes"),
    )),
    "stationary_distribution": ("graph.stationary_s", (
        ("gossip_learning.cli", "stationary_distribution"),
        ("gossip_learning", "stationary_distribution"),
    )),
    "check_global_identifiability": ("world.identifiability_s", (
        ("gossip_learning.cli", "check_global_identifiability"),
        ("gossip_learning", "check_global_identifiability"),
    )),
    "run_replications": ("simulator.run_s", (
        ("gossip_learning.cli", "run_replications"),
        ("gossip_learning", "run_replications"),
    )),
    "run": ("simulator.run_s", (("gossip_learning.simulator", "run"),)),
    "write_trace_csvs": ("simulator.write_s", (("gossip_learning.cli", "write_trace_csvs"),)),
    "read_trace_csvs": ("simulator.read_s", (("gossip_learning.cli", "read_trace_csvs"),)),
    "verify_walk_identity": ("simulator.walk_identity_s", (
        ("gossip_learning", "verify_walk_identity"),
    )),
    "rate_report": ("analysis.rate_report_s", (
        ("gossip_learning.cli", "rate_report"),
        ("gossip_learning", "rate_report"),
    )),
    "occupancy": ("analysis.occupancy_s", (
        ("gossip_learning.cli", "occupancy"),
        ("gossip_learning", "occupancy"),
    )),
    "belief_difference": ("analysis.belief_difference_s", (
        ("gossip_learning.cli", "belief_difference"),
        ("gossip_learning", "belief_difference"),
    )),
    "write_rate_report": ("analysis.write_s", (("gossip_learning.cli", "write_rate_report"),)),
    "write_occupancy": ("analysis.write_s", (("gossip_learning.cli", "write_occupancy"),)),
    "write_belief_difference": ("analysis.write_s", (("gossip_learning.cli", "write_belief_difference"),)),
}

# a root span's self time is op time that no layer span covers
ROOT_METRIC = "cli.self_s"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span within its op
    op: int


def _mb(paths) -> float:
    return sum(Path(p).stat().st_size for p in paths) / 1e6


def _traces_counts(traces) -> dict[str, float]:
    """Agent-rounds simulated, and snapshot bytes computed as
    snapshots x n x k x 8 B (not measured)."""
    counts = {"agent_rounds": 0, "snapshot_mb": 0.0}
    for tr in traces:
        k = tr.log_belief_at(tr.snapshot_times[0]).shape[1]
        counts["agent_rounds"] += tr.n * tr.horizon
        counts["snapshot_mb"] += len(tr.snapshot_times) * tr.n * k * 8 / 1e6
    return counts


def _dir_mb(directory) -> float:
    return _mb(p for p in Path(directory).iterdir() if p.is_file())


# counters recorded at a boundary, from the call's arguments and result
COUNTERS: dict[str, Callable] = {
    "run_replications": lambda args, result: _traces_counts(result),
    "write_trace_csvs": lambda args, result: {"write_mb": _mb(result)},
    "read_trace_csvs": lambda args, result: {"read_mb": _dir_mb(args[0])},
    "verify_walk_identity": lambda args, result: {"walk_identity_calls": 1},
}


class Tracer:
    """Records spans and counters of traced ops while installed; restores
    every binding on uninstall. Calls outside an op are not recorded."""

    def __init__(self):
        self.ops: list[list[Span]] = []  # per op; a span's parent indexes its op's list
        self.counts: list[dict[str, float]] = []  # per op: counter totals
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        spans = self.ops[-1]
        parent = self._stack[-1] if self._stack else None
        spans.append(Span(name, time.perf_counter(), 0.0, parent, len(self.ops) - 1))
        self._stack.append(len(spans) - 1)
        return len(spans) - 1

    def _close(self, idx: int) -> None:
        self.ops[-1][idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                try:
                    counts = counter(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.absent.append(f"{name} counters")
                    counts = {}
                for key, value in counts.items():
                    self.counts[-1][key] = self.counts[-1].get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        wrapped: dict[int, Callable] = {}
        for name, (_, bindings) in LAYERS.items():
            found = False
            for module_name, attr in bindings:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                found = True
                if id(original) not in wrapped:
                    wrapped[id(original)] = self.wrap(name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped[id(original)])
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def op(self, fn: Callable):
        """Run fn() as one traced op under a root span; returns its result.
        Its spans are then ``ops[-1]``, root first."""
        self.ops.append([])
        self.counts.append({})
        idx = self._open(ROOT)
        try:
            return fn()
        finally:
            self._close(idx)

    def record(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {"spans": [asdict(s) for spans in self.ops for s in spans],
                "counts": self.counts, "absent": self.absent}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span. Parents index ``spans``."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(idx, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per metric name over one op's spans."""
    metric_of = {name: metric for name, (metric, _) in LAYERS.items()}
    metric_of[ROOT] = ROOT_METRIC
    totals = {metric: 0.0 for metric in metric_of.values()}
    for s, self_s in zip(spans, self_times(spans)):
        totals[metric_of[s.name]] += self_s
    return totals
