"""The benchmark's per-layer metrics wrap names the package binds, among them
the names cli imports. A binding the package drops is reported as absent and
its layer reads zero, so the set of absent bindings is pinned here: only the
two trace-CSV functions, gone since traces became binary files. Nothing under
bench/ is written."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(str(BENCH))


def test_every_layer_binding_but_the_csv_ones_is_found(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sorted(tracer.absent) == ["read_trace_csvs", "write_trace_csvs"]
    finally:
        tracer.uninstall()
