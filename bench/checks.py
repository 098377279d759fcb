"""Per-op correctness checks. Each returns a list of failure messages; an op
with any failure counts as failed.

These read the program's outputs and public results only, and compute
their references independently where they can (the stationarity residual
is taken against a selection matrix rebuilt from the config dict).
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

EXAMPLE1_DIGESTED = ("fig2_agent2_beliefs.csv", "fig3_diff_3_8.csv", "occupancy.csv", "rate_report.csv")
RATE_REL_TOLERANCE = 0.15  # the built-in config's documented tolerance
REPLAY_REL_TOL = 1e-9
STATIONARY_TOL = 1e-10
WALK_IDENTITY_TOL = 1e-8  # fixed here, not read from the code under test


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_rate_rows(path: Path) -> dict[tuple[str, str], tuple[float, float, float]]:
    """rate_report.csv as {(check_state, agent): (theoretical, empirical, stderr)}."""
    with Path(path).open(newline="") as fh:
        return {(r["check_state"], r["agent"]): (float(r["theoretical"]), float(r["empirical"]),
                                                 float(r["stderr"]))
                for r in csv.DictReader(fh)}


def example1_output(out: Path, rc: int, expected: dict[str, str] | None) -> tuple[list[str], dict[str, str]]:
    """Exit code 0, a PASS verdict in rate_report.csv, and the digested CSVs
    equal to ``expected`` when given. Returns (failures, digests)."""
    failures = []
    if rc != 0:
        failures.append(f"example1 exited {rc}")
    digests = {}
    for name in EXAMPLE1_DIGESTED:
        path = out / name
        if not path.is_file():
            failures.append(f"missing {name}")
            continue
        digests[name] = sha256_file(path)
        if expected is not None and digests[name] != expected.get(name):
            failures.append(f"{name} digest {digests[name][:12]} != expected {str(expected.get(name))[:12]}")
    if (out / "rate_report.csv").is_file():
        try:
            rows = read_rate_rows(out / "rate_report.csv")
        except (KeyError, ValueError) as exc:
            failures.append(f"rate_report.csv unreadable: {exc!r}")
            rows = {}
        if not rows:
            failures.append("rate_report.csv has no rows")
        for key, (theo, emp, _) in rows.items():
            if theo > 0.0 and not abs(emp - theo) / theo <= RATE_REL_TOLERANCE:
                failures.append(f"verdict FAIL for {key}: empirical {emp!r} vs theoretical {theo!r}")
    return failures, digests


def replay_output(out: Path, rc: int, reference: dict[tuple[str, str], tuple[float, float, float]],
                  expected_rc: int) -> list[str]:
    """The exit code the in-memory verdict implies, and every rate_report.csv
    row within a relative 1e-9 of the in-memory rate_report for the same
    traces."""
    failures = []
    if rc != expected_rc:
        failures.append(f"rate --traces exited {rc}, in-memory verdict implies {expected_rc}")
    path = out / "rate_report.csv"
    if not path.is_file():
        return failures + ["missing rate_report.csv"]
    try:
        rows = read_rate_rows(path)
    except (KeyError, ValueError) as exc:
        return failures + [f"rate_report.csv unreadable: {exc!r}"]
    if set(rows) != set(reference):
        failures.append(f"rate_report.csv rows {sorted(rows)} != reference {sorted(reference)}")
    for key in set(rows) & set(reference):
        for got, want in zip(rows[key], reference[key]):
            if not math.isclose(got, want, rel_tol=REPLAY_REL_TOL, abs_tol=0.0):
                failures.append(f"row {key}: {got!r} != in-memory {want!r}")
    return failures


def stationary_residual(cfg: dict, pi: np.ndarray) -> float:
    """max |pi P - pi| for the uniform selection matrix the config dict
    describes, built from its edge list without the program's graph code.
    Edge [j, i] (1-based) means agent i consults j with probability
    1 / in-degree(i); every agent must have an in-neighbour."""
    edges = np.array(cfg["network"]["edges"], dtype=np.int64) - 1
    src, dst = edges[:, 0], edges[:, 1]
    indeg = np.bincount(dst, minlength=len(pi))
    pi_p = np.zeros(len(pi))
    np.add.at(pi_p, src, pi[dst] / indeg[dst])
    return float(np.max(np.abs(pi_p - pi)))


def snapshot_digest(trace) -> str:
    """SHA-256 over log_belief_at(t), little-endian f8, for every snapshot time."""
    h = hashlib.sha256()
    for t in trace.snapshot_times:
        h.update(np.ascontiguousarray(trace.log_belief_at(t), dtype="<f8").tobytes())
    return h.hexdigest()


def wide_output(cfg: dict, pi: np.ndarray, trace, residuals: list[float],
                expected_digest: str | None) -> tuple[list[str], str]:
    """Walk-identity residuals within tolerance, pi stationary within 1e-10,
    every snapshot row normalized, and the snapshot digest equal to
    ``expected_digest`` when given. Returns (failures, digest)."""
    failures = []
    worst = max(residuals) if residuals else math.inf
    if not worst <= WALK_IDENTITY_TOL:
        failures.append(f"walk identity residual {worst!r} > {WALK_IDENTITY_TOL}")
    res = stationary_residual(cfg, pi)
    if not res <= STATIONARY_TOL:
        failures.append(f"max|pi P - pi| = {res!r} > {STATIONARY_TOL}")
    for t in trace.snapshot_times:
        lb = trace.log_belief_at(t)
        mass = np.exp(lb).sum(axis=1)
        if not np.all(np.abs(mass - 1.0) <= 1e-12):
            failures.append(f"snapshot t={t} has a row with mass {mass[np.argmax(np.abs(mass - 1.0))]!r}")
            break
    digest = snapshot_digest(trace)
    if expected_digest is not None and digest != expected_digest:
        failures.append(f"snapshot digest {digest[:12]} != expected {expected_digest[:12]}")
    return failures, digest
