"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest -q bench/selftest.py

The repository's test suite does not collect this file (its name does not
match test_*.py): these tests run benchmark items and take about a minute.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from qng import ChannelSpec, apply_loss, delta_a, make_fock  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "1",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result = bench(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})


def references(name: str) -> list:
    return json.loads((run.REFERENCE / f"{name}.json").read_text())["seeds"]["1"]


def failures(name: str, corrupt, count: int) -> int:
    """Items counted as failed when each output passes through ``corrupt``."""
    workload = workloads.WORKLOADS[name]
    broken = dataclasses.replace(
        workload, run=lambda item: corrupt(item, workload.run(item)))
    done, _ = run.run_items(broken, workloads.items(broken, 1), count=count)
    problems, _ = run.check_all(workloads, done, references(name))
    return len(problems)


def unchanged(item, res):
    return res


def shift_threshold(item, res):
    """Move epsilon_star by three bisection tolerances, or swap the sentinel."""
    head, row = res.out.splitlines()
    *fields, star = row.split(",")
    swapped = {"one": "none", "none": "one"}
    star = swapped.get(star) or repr(float(star) + 3 * item.params["tol"])
    return dataclasses.replace(res, out=f"{head}\n{','.join(fields + [star])}\n")


def push_hull_below_floor(item, res):
    return dataclasses.replace(res, deltas=[-2e-7] + res.deltas[1:])


def nudge_hull(item, res):
    return dataclasses.replace(res, deltas=[d + 1e-8 for d in res.deltas])


def nudge_last_row(item, res):
    """Scale the second value of the last row (bound, or n_avg; both > 0)."""
    *body, last = res.out.splitlines()
    fields = last.split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))
    return dataclasses.replace(res, out="\n".join(body + [",".join(fields)]) + "\n")


def exit_numerical(item, res):
    return dataclasses.replace(res, rc=3)


@pytest.mark.parametrize("name,count", [("threshold-a", 2), ("hull-soundness", 20),
                                        ("bound-tables", 6)])
def test_correct_outputs_pass(name, count):
    assert failures(name, unchanged, count) == 0


@pytest.mark.parametrize("name,corrupt,count", [
    ("threshold-a", shift_threshold, 2),       # Fock by closed form, PAC by reference
    ("hull-soundness", push_hull_below_floor, 10),
    ("hull-soundness", nudge_hull, 10),
    ("bound-tables", nudge_last_row, 4),
    ("bound-tables", exit_numerical, 4),
])
def test_corrupted_outputs_are_counted_as_failed(name, corrupt, count):
    assert failures(name, corrupt, count) == count


def test_fock_threshold_check_without_reference():
    item = next(workloads.items(workloads.WORKLOADS["threshold-a"], 1))
    assert item.params["family"] == "fock"
    res = workloads.run_cli(item)
    assert workloads.check(item, res) is None
    assert workloads.check(item, shift_threshold(item, res)) is not None


@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("s", [0.0, -0.7, -2.0])
def test_closed_form_fock_witness_matches_library(m, s):
    for eps in (0.1, 0.5, 0.9):
        lossy = apply_loss(make_fock(m, 80), ChannelSpec(eps))
        assert workloads.closed_form_fock_witness(m, s, eps) == pytest.approx(
            delta_a(lossy, s).delta, abs=1e-11)


def test_strata_come_in_the_same_order_for_every_seed():
    def bands(seed):
        draws = workloads.stratified(np.random.default_rng(seed), 0.0, 8.0)
        return [int(x) for x in itertools.islice(draws, 16)]

    assert bands(1) == bands(2) == [0, 4, 2, 6, 1, 5, 3, 7] * 2
