"""The benchmark's workloads: seeded item streams, item runners and checks.

An item is one unit of user work: a ``qng`` CLI job run in-process through
``qng.cli.main(argv)``, or one random Gaussian-hull state tested with the
library. The CLI streams visit their strata (family, s band, parameter band)
in an order that is the same for every seed; the seed draws each value inside
its stratum. So the cost of the first N items barely depends on the seed,
while no two items repeat an input.

Every output is checked twice: against invariants that need no reference, and,
for the seeds in ``reference/``, against outputs recorded at the seed commit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from itertools import count, cycle
from typing import Callable, Iterator

import numpy as np

import qng
import qng.bounds
import qng.cli

S_FIVE = (0.0, -0.25, -0.5, -1.0, -2.0)
HULL_CUTOFF = 170
HULL_DELTA_FLOOR = -1e-7   # criterion 13: no hull state may go below this
HULL_REF_TOL = 1e-9
CSV_REL_TOL = 1e-9
CLOSED_FORM_FUZZ = 1e-12   # matrix path vs closed form differ by ~1e-13

THRESHOLD_HEADER = "family_param,s,criterion,epsilon_star"
FAMILY_FLAG = {"fock": "--m", "pac": "--alpha", "pss": "--r"}
CLI_STEP = 0.1             # bound-curve n step
ERROR_BARS_STEP = 0.25     # error-bars n_avg step


def _num(x: float) -> str:
    """Text of a generated input; the CLI parses it back to the same float."""
    return repr(float(x) + 0.0)  # + 0.0 turns -0.0 into 0.0


@dataclass
class Item:
    kind: str                  # "threshold", "bound-curve", "error-bars", "hull"
    params: dict
    argv: list[str] | None = None


@dataclass
class Outcome:
    """What the program returned for one item: CLI exit code and streams, or
    the hull deltas."""

    rc: int = 0
    out: str = ""
    err: str = ""
    deltas: list[float] | None = None


def run_cli(item: Item) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = qng.cli.main(item.argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return Outcome(rc=rc, out=out.getvalue(), err=err.getvalue())


def run_hull(item: Item) -> Outcome:
    p = item.params
    comps = [qng.make_displaced_squeezed(complex(re, im), q, HULL_CUTOFF)
             for re, im, q in p["components"]]
    state = comps[0] if len(comps) == 1 else qng.mix(comps, [p["w"], 1 - p["w"]])
    return Outcome(deltas=[qng.delta_a(state, s).delta for s in S_FIVE])


# ---------------------------------------------------------------- streams

def stratified(rng: np.random.Generator, lo: float, hi: float,
               bands: int = 8) -> Iterator[float]:
    """Endless draws from [lo, hi), rounded to 4 decimals: every ``bands``
    consecutive draws take one value from each equal band. The bands come in
    bit-reversed order (0, 4, 2, 6, 1, ... for 8), the same for every seed,
    so that any run of draws spreads over the range; only the place inside
    each band comes from the seed. This keeps the mix of cheap and dear
    inputs in a short run the same for every seed."""
    bits = bands.bit_length() - 1
    assert bands == 1 << bits, "bands must be a power of two"
    order = [int(f"{b:0{bits}b}"[::-1], 2) for b in range(bands)]
    while True:
        for band in order:
            yield round(lo + (hi - lo) * (band + rng.uniform()) / bands, 4)


def threshold_a_items(rng: np.random.Generator) -> Iterator[Item]:
    """Rounds of six criterion-a threshold jobs at cutoff 80: Fock, PAC and
    PSS with s in [-1, 0], then the same three with s in [-2, -1]. Fock
    numbers cycle through 1, 3, 5, 2, 4."""
    s_bands = [[stratified(rng, -1.0 - band, -band) for _ in range(3)]
               for band in (0, 1)]
    alpha, r = stratified(rng, 1.5, 3.0), stratified(rng, 0.3, 0.6)
    fock_m = cycle((1, 3, 5, 2, 4))
    while True:
        for s_band in s_bands:
            for family, s_values in zip(("fock", "pac", "pss"), s_band):
                s = next(s_values)
                if family == "fock":
                    param = next(fock_m)
                    text = str(param)
                else:
                    param = next(alpha if family == "pac" else r)
                    text = _num(param)
                yield _threshold_item(family, param, text, s, "a", 1e-5)


def threshold_b_items(rng: np.random.Generator) -> Iterator[Item]:
    """Rounds of four criterion-b threshold jobs at cutoff 80: three PSS
    (squeeze map, full scan and bisection), then one PAC (displacement map,
    "one" after a single refined evaluation). s alternates between 0 and -1.

    r is kept to [0.30, 0.34]: the threshold drops as r grows and the scan
    walks further. With one BLAS thread a PSS item takes about 0.7 s at
    r = 0.30, 1.0 s at r = 0.34, 1.9 s at r = 0.45 and 4.4 s at r = 0.6, so
    a wider range would make the cost of a run depend on which r were drawn.
    """
    r, alpha = stratified(rng, 0.30, 0.34), stratified(rng, 1.5, 3.0)
    for rnd in count():
        for slot in range(4):
            s = -float((rnd + slot) % 2) + 0.0
            if slot < 3:
                param = next(r)
                yield _threshold_item("pss", param, _num(param), s, "b", 1e-3)
            else:
                param = next(alpha)
                yield _threshold_item("pac", param, _num(param), s, "b", 1e-3)


def threshold_items(rng: np.random.Generator) -> Iterator[Item]:
    """Criterion-a and criterion-b threshold jobs in turn, each drawn as in
    threshold_a_items and threshold_b_items. Both kinds of job cost about
    the same, so one workload carries the traffic of both and its runs can be
    long enough to average over the machine's slow stretches."""
    a, b = threshold_a_items(rng), threshold_b_items(rng)
    while True:
        yield next(a)
        yield next(b)


def _threshold_item(family, param, text, s, criterion, tol) -> Item:
    argv = ["threshold", "--family", family, FAMILY_FLAG[family], text,
            "--s", _num(s), "--criterion", criterion, "--tol", repr(tol),
            "--cutoff", "80"]
    return Item("threshold", {"family": family, "param": param, "s": s + 0.0,
                              "criterion": criterion, "tol": tol}, argv)


def hull_items(rng: np.random.Generator) -> Iterator[Item]:
    """Pure Gaussian states and 2-component mixtures in strict alternation,
    with mean photon numbers in [0, 5], each component drawn as in acceptance
    criterion 13.

    Criterion 13 draws one or two components with equal odds. Strict
    alternation keeps that ratio exact in every run, so the median latency
    always lies between the slowest pure states and the fastest mixtures. At
    a 1:2 ratio it lay at the 25th percentile of the mixtures, which jumped
    between the machine's fast and slow stretches (bench/README.md).
    """
    while True:
        for k in (1, 2):
            comps = []
            for _ in range(k):
                n = rng.uniform(0.0, 5.0)
                msq = n * rng.uniform(0.0, 1.0)
                alpha = np.sqrt(n - msq) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
                comps.append((float(alpha.real), float(alpha.imag),
                              float(np.arcsinh(np.sqrt(msq)))))
            w = float(rng.uniform(0.05, 0.95)) if k == 2 else 1.0
            yield Item("hull", {"components": comps, "w": w})


def bound_items(rng: np.random.Generator) -> Iterator[Item]:
    """Rounds of two bound-curve jobs and one error-bars job, s in [-3, 0].

    A bound-curve job costs about a tenth of an error-bars job; at 1:1 the
    median latency would fall in the gap between them, so the ratio is 2:1.
    """
    s, n_max = stratified(rng, -3.0, 0.0), stratified(rng, 1.0, 4.0)
    k, hi = stratified(rng, 20, 100), stratified(rng, 0.5, 1.5)
    while True:
        for _ in range(2):
            s_i, n_i = next(s) + 0.0, round(next(n_max), 2)
            yield Item("bound-curve", {"s": s_i, "n_max": n_i},
                       ["bound-curve", "--s", _num(s_i), "--n-max", _num(n_i),
                        "--step", _num(CLI_STEP)])
        s_i, k_i = next(s) + 0.0, int(next(k))
        hi_i = ERROR_BARS_STEP * round(next(hi) / ERROR_BARS_STEP)
        yield Item("error-bars", {"s": s_i, "hi": hi_i, "k": k_i},
                   ["error-bars", "--s", _num(s_i), "--n-avg", f"0..{hi_i!r}",
                    "--step", _num(ERROR_BARS_STEP), "--k", str(k_i)])


# ------------------------------------------------------- invariant checks

def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def closed_form_fock_witness(m: int, s: float, eps: float) -> float:
    """Criterion-a witness of |m> after loss eps, from the closed form

    Q_s = 2/(pi(1-s)) (eps - eta(1+s)/(1-s))^m and n_bar = eta m, eta = 1-eps,
    minus the hull bound at n_bar.
    """
    eta = 1.0 - eps
    q = 2.0 / (math.pi * (1.0 - s)) * (eps - eta * (1.0 + s) / (1.0 - s)) ** m
    return q - qng.bounds.pure_bound(eta * m, s)[0]


def _check_fock_threshold(p: dict, star: str) -> str | None:
    m, s, tol = int(p["param"]), p["s"], p["tol"]

    def w(eps):
        return closed_form_fock_witness(m, s, min(max(eps, 0.0), 1.0))

    if star == "one":
        ok = w(1.0 - tol) <= CLOSED_FORM_FUZZ
    elif star == "none":
        ok = all(w(e) > -CLOSED_FORM_FUZZ for e in np.linspace(tol, 1 - tol, 200))
    else:
        e = float(star)
        ok = w(e - tol) <= CLOSED_FORM_FUZZ and w(e + tol) > -CLOSED_FORM_FUZZ
    return None if ok else f"closed-form witness has no sign change at {star}"


def check_threshold(item: Item, res: Outcome) -> str | None:
    p = item.params
    rows = _csv_rows(res.out)
    if len(rows) != 2 or ",".join(rows[0]) != THRESHOLD_HEADER:
        return "threshold CSV does not have its header and one row"
    param, s, crit, star = rows[1]
    echo = float(int(p["param"])) if p["family"] == "fock" else p["param"]
    if float(param) != echo or float(s) != p["s"] or crit != p["criterion"]:
        return "threshold row does not echo its inputs"
    if star not in ("one", "none") and not 0.0 <= float(star) <= 1.0:
        return f"epsilon_star {star} outside [0, 1]"
    if p["family"] == "fock" and p["criterion"] == "a":
        return _check_fock_threshold(p, star)
    return None


def check_bound_curve(item: Item, res: Outcome) -> str | None:
    rows = _csv_rows(res.out)
    n_rows = len(np.arange(0.0, item.params["n_max"] + CLI_STEP / 2, CLI_STEP))
    if not rows or ",".join(rows[0]) != "n,bound,m_opt" or len(rows) != n_rows + 1:
        return "bound-curve CSV does not have its header and one row per n"
    values = np.array(rows[1:], dtype=float)
    n, bound, m_opt = values.T
    if np.any(bound <= 0) or np.any(m_opt < 0) or np.any(m_opt > n + 1e-12):
        return "bound-curve has a non-positive bound or m_opt outside [0, n]"
    if np.any(np.diff(bound) > 1e-12 * bound[:-1]):
        return "bound-curve bound increases with n"
    return None


def check_error_bars(item: Item, res: Outcome) -> str | None:
    p = item.params
    rows = _csv_rows(res.out)
    n_rows = len(qng.cli.parse_range(f"0..{p['hi']!r}", ERROR_BARS_STEP))
    if (len(rows) != n_rows + 2 or rows[0] != [f"# k={p['k']}"]
            or ",".join(rows[1]) != "s,n_avg,mean,std"):
        return "error-bars CSV does not have its header and one row per n_avg"
    values = np.array(rows[2:], dtype=float)
    if np.any(values[:, 2] <= 0) or np.any(values[:, 3] < 0):
        return "error-bars has a non-positive mean or a negative std"
    if values[0, 1] == 0 and (values[0, 2] != 1.0 or values[0, 3] != 0.0):
        return "error-bars row at n_avg = 0 is not (1, 0)"
    return None


CLI_CHECKS = {"threshold": check_threshold, "bound-curve": check_bound_curve,
              "error-bars": check_error_bars}


def check(item: Item, res: Outcome) -> str | None:
    """Invariant check of one output; returns the problem, or None."""
    if item.kind == "hull":
        if len(res.deltas) != len(S_FIVE):
            return "hull item did not give one delta per s"
        worst = min(res.deltas)
        return (None if worst >= HULL_DELTA_FLOOR
                else f"hull state triggers the witness (delta {worst:.3e})")
    if res.rc != 0:
        return f"exit code {res.rc}: {res.err.strip()[:200]}"
    try:
        return CLI_CHECKS[item.kind](item, res)
    except ValueError as exc:  # unparsable number or ragged CSV
        return f"malformed CSV: {exc}"


# ------------------------------------------------------ reference checks

def record(item: Item, res: Outcome):
    """The form in which an output is stored in reference/<workload>.json."""
    return res.deltas if item.kind == "hull" else res.out


def _close(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return math.isclose(x, y, rel_tol=CSV_REL_TOL)


def compare(item: Item, res: Outcome, ref) -> str | None:
    """Compare one output with the reference recorded at the seed commit."""
    if item.kind == "hull":
        worst = max(abs(a - b) for a, b in zip(res.deltas, ref))
        return (None if worst <= HULL_REF_TOL
                else f"hull delta differs from reference by {worst:.3e}")
    got, want = _csv_rows(res.out), _csv_rows(ref)
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return "CSV shape differs from reference"
    if item.kind == "threshold":
        star, ref_star = got[1][3], want[1][3]
        sentinel = {star, ref_star} & {"one", "none"}
        if (star != ref_star if sentinel
                else abs(float(star) - float(ref_star)) > item.params["tol"]):
            return f"epsilon_star {star} differs from reference {ref_star}"
        got, want = got[:1] + [got[1][:3]], want[:1] + [want[1][:3]]
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            if not _close(x, y):
                return f"CSV value {x} differs from reference {y}"
    return None


# ------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Workload:
    name: str
    stream: Callable[[np.random.Generator], Iterator[Item]]
    run: Callable[[Item], Outcome]
    # About the items per second at the seed commit (2 shared vCPUs, one BLAS
    # thread). Sets the fixed item count of a traced run, so that its call
    # counts repeat exactly.
    trace_rate: float
    # Items per seed recorded in reference/<name>.json.
    reference_items: int


WORKLOADS = {w.name: w for w in (
    Workload("thresholds", threshold_items, run_cli, 1.3, 60),
    Workload("threshold-a", threshold_a_items, run_cli, 1.0, 60),
    Workload("threshold-b", threshold_b_items, run_cli, 1.5, 15),
    Workload("hull-soundness", hull_items, run_hull, 60.0, 200),
    Workload("bound-tables", bound_items, run_cli, 27.0, 60),
)}


def items(workload: Workload, seed: int) -> Iterator[Item]:
    return workload.stream(np.random.default_rng(seed))
