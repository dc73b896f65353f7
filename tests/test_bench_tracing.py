"""The benchmark's tracer wraps qng functions by name: every name it lists
must exist, or a traced benchmark run fails while the library tests pass."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import qng.cli
import qng.fock

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    missing = [f"{module.__name__}.{name}"
               for module, names in tracing.TARGETS.values()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []
    assert "__post_init__" in vars(qng.fock.TruncatedState)


def test_traced_run_records_spans_and_restores_names(tracing, capsys):
    post_init = qng.fock.TruncatedState.__post_init__
    main = qng.cli.main
    with tracing.Tracer() as tracer:
        assert qng.cli.main(["error-bars", "--s", "-1", "--n-avg", "0.5",
                             "--k", "10"]) == 0
        qng.fock.TruncatedState(np.diag([0.5, 0.5]))
    capsys.readouterr()
    totals = tracer.totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["error_model.normalized_bound_stats"]["calls"] == 1
    assert totals["fock.TruncatedState"]["calls"] == 1
    assert qng.cli.main is main
    assert qng.fock.TruncatedState.__post_init__ is post_init
