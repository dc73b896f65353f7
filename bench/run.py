"""Benchmark of the qng witness library and CLI, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload thresholds --seed 1 --seconds 50 --trace 0

One process, one client, closed loop: each item starts when the previous one
has finished, as in a user's script or a sequence of ``qng`` invocations.
With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a fixed number of items twice,
untraced and then traced, and reports the per-layer metrics. Every output is
checked (see workloads.py). The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the full result, with the
environment block, goes to bench/out/.

The program is imported from ``src/`` next to this directory and runs with
one BLAS thread (bench/README.md, "BLAS threads").
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"
SETUP_RUNS = 3
TRACE_CHUNKS = 4

# Set before numpy loads OpenBLAS; the set-up interpreters inherit it. With
# OpenBLAS's default of one thread per vCPU, one criterion-b job on two shared
# vCPUs took 2.6 s and then 1.7 s; with one thread, 0.75 s both times.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# A fresh interpreter until it is ready to run its first item.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qng.cli; "
              "qng.cli.build_parser(); print('ready', flush=True)")


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until it is ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup interpreter failed (exit {proc.returncode})")
    return elapsed


def run_items(workload, stream, *, seconds=None, count=None):
    """Run items until ``seconds`` have passed or ``count`` items are done.

    Returns the (item, outcome, error, latency_s) records and the wall time.
    """
    done = []
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else None
    while (len(done) < count if count is not None
           else time.perf_counter() < deadline):
        item = next(stream)
        t = time.perf_counter()
        try:
            res, err = workload.run(item), None
        except Exception as exc:  # a failed item is counted, not fatal
            res, err = None, f"{type(exc).__name__}: {exc}"
        done.append((item, res, err, time.perf_counter() - t))
    return done, time.perf_counter() - start


def check_all(workloads, done, refs):
    """Returns the problems found and the count of CSVs byte-identical to
    their reference."""
    problems, identical = [], 0
    for i, (item, res, err, _) in enumerate(done):
        problem = err or workloads.check(item, res)
        if problem is None and i < len(refs):
            problem = workloads.compare(item, res, refs[i])
            identical += item.kind != "hull" and res.out == refs[i]
        if problem is not None:
            problems.append(f"item {i} {item.argv or item.params}: {problem}")
    return problems, identical


def latency_ms(done, q: int) -> float:
    """q-th percentile of item latency (inclusive method), in ms."""
    lat = [1e3 * rec[3] for rec in done]
    if len(lat) < 2:
        return lat[0]
    return statistics.quantiles(lat, n=100, method="inclusive")[q - 1]


def per_layer(workloads, tracing, workload, seed, seconds, refs):
    """Run the first n items of the seed untraced and traced, and report the
    per-layer metrics of the traced pass.

    n depends only on the workload and ``seconds``, so the call counts of a
    seed repeat exactly. The two passes alternate in four chunks, so that a
    change in the machine's speed during the run falls on both of them.
    """
    n = max(1, round(workload.trace_rate * seconds / 2))
    first = list(itertools.islice(workloads.items(workload, seed), n))
    step = -(-n // TRACE_CHUNKS)
    tracer = tracing.Tracer()
    plain, traced, plain_wall, traced_wall = [], [], 0.0, 0.0
    for i in range(0, n, step):
        chunk = first[i:i + step]
        done, wall = run_items(workload, iter(chunk), count=len(chunk))
        plain, plain_wall = plain + done, plain_wall + wall
        with tracer:
            done, wall = run_items(workload, iter(chunk), count=len(chunk))
        traced, traced_wall = traced + done, traced_wall + wall
    t = tracer.totals()

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def self_ms(name):
        return t.get(name, {}).get("self_ms", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    compared = sum(item.kind != "hull" for item, *_ in traced[:len(refs)])
    metrics = {
        "fock.TruncatedState.calls": (calls("fock.TruncatedState"), "count"),
        "fock.TruncatedState.self_ms": (self_ms("fock.TruncatedState"), "ms"),
        "fock.make_state.calls": (calls("fock.make_state"), "count"),
        "fock.make_state.self_ms": (self_ms("fock.make_state"), "ms"),
        "fock.apply_loss.calls": (calls("fock.apply_loss"), "count"),
        "fock.apply_loss.self_ms": (self_ms("fock.apply_loss"), "ms"),
        "fock.apply_map.calls": (calls("fock.apply_map"), "count"),
        "fock.apply_map.self_ms": (self_ms("fock.apply_map"), "ms"),
        "fock.apply_map.failed": (
            t.get("fock.apply_map", {}).get("TruncationError", 0), "count"),
        "fock.moments.self_ms": (self_ms("fock.moments"), "ms"),
        "quasiprob.qs_origin.calls": (calls("quasiprob.qs_origin"), "count"),
        "quasiprob.qs_origin.self_ms": (self_ms("quasiprob.qs_origin"), "ms"),
        "bounds.pure_bound.calls": (calls("bounds.pure_bound"), "count"),
        "bounds.pure_bound.self_ms": (self_ms("bounds.pure_bound"), "ms"),
        "witness.witness_at_loss.calls": (calls("witness.witness_at_loss"),
                                          "count"),
        "witness.evals_per_item": (ratio(calls("witness.witness_at_loss"),
                                         calls("witness.epsilon_threshold")),
                                   "count"),
        "witness.delta_a.self_ms": (self_ms("witness.delta_a"), "ms"),
        "witness.delta_b.calls": (calls("witness.delta_b"), "count"),
        "witness.refine_map.calls": (calls("witness.refine_map"), "count"),
        "witness.refine_map.self_ms": (self_ms("witness.refine_map"), "ms"),
        "witness.refine_map.improved_ratio": (
            ratio(t.get("witness.refine_map", {}).get("improved", 0),
                  calls("witness.refine_map")), "1"),
        "witness.epsilon_threshold.self_ms": (
            self_ms("witness.epsilon_threshold"), "ms"),
        "error_model.normalized_bound_stats.calls": (
            calls("error_model.normalized_bound_stats"), "count"),
        "error_model.normalized_bound_stats.self_ms": (
            self_ms("error_model.normalized_bound_stats"), "ms"),
        "error_model.pure_bound_per_row": (
            ratio(tracer.calls_under("bounds.pure_bound",
                                     "error_model.normalized_bound_stats"),
                  calls("error_model.normalized_bound_stats")), "count"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms"),
        "cli.csv_identical_ratio": (
            ratio(check_all(workloads, traced, refs)[1], compared), "1"),
        "trace.overhead_ratio": (traced_wall / plain_wall - 1.0, "1"),
        "trace.covered_ratio": (
            sum(v["self_ms"] for v in t.values()) / (1e3 * traced_wall), "1"),
    }
    return [plain, traced], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qng" / "__init__.py").is_file():
        print(f"bench: no qng package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import environment
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment.environment(ROOT, args.seed)
    ref_file = REFERENCE / f"{workload.name}.json"
    refs = (json.loads(ref_file.read_text())["seeds"].get(str(args.seed), [])
            if ref_file.is_file() else [])

    if args.trace:
        passes, metrics = per_layer(workloads, tracing, workload, args.seed,
                                    args.seconds, refs)
    else:
        setup = statistics.median(setup_seconds() for _ in range(SETUP_RUNS))
        workload.run(next(workloads.items(workload, args.seed)))  # warm-up
        done, wall = run_items(workload, workloads.items(workload, args.seed),
                               seconds=args.seconds)
        passes = [done]
    problems, identical = [], 0
    for done in passes:
        found, same = check_all(workloads, done, refs)
        problems, identical = problems + found, identical + same
    attempted, failed = sum(map(len, passes)), len(problems)
    compared = sum(min(len(refs), len(done)) for done in passes)
    if not args.trace:
        metrics = {
            "items_per_s": ((attempted - failed) / wall, "1/s"),
            "item_p50_ms": (latency_ms(done, 50), "ms"),
            "item_p90_ms": (latency_ms(done, 90), "ms"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    env["loadavg_after"] = os.getloadavg()

    for problem in problems[:20]:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(
        {**result, "workload": workload.name, "seconds": args.seconds,
         "failed_ratio": failed / attempted, "reference_items": compared,
         "csv_identical": identical, "problems": problems, "environment": env,
         "items": [[item.argv or item.params, round(1e3 * lat, 3)]
                   for done in passes for item, _, _, lat in done]},
        indent=1) + "\n")

    print("environment " + json.dumps(env))
    print(f"{workload.name} seed {args.seed}: {attempted} items, "
          f"{compared} checked against reference")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {failed / attempted:.6g} 1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
