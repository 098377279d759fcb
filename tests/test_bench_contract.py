"""The benchmark's contract with the package: one op of each workload in
bench/worker.py, at the seed its reference digests were taken at, passes
every check the benchmark makes. The benchmark calls the package's public
names and compares seeded output bytes, so a renamed or deleted name, or a
changed seeded byte, fails here. Nothing under bench/ is written."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(BENCH))
    try:
        import worker

        yield worker
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["example1", "replay", "wide"])
def test_one_op_of_each_workload_passes_its_checks(worker, name, tmp_path):
    seed = worker.REFERENCE_SEED
    if name == "replay":
        worker.replay_setup(seed, tmp_path)
        worker.write_replay_reference(seed, tmp_path)
    load = worker.WORKLOADS[name](seed, tmp_path)
    if name != "replay":
        # the op's outputs are compared with the committed digests
        assert load.expected == json.loads((BENCH / "reference.json").read_text())[name]
    out, op = load.op(0)
    assert load.check(out, op()) == []
