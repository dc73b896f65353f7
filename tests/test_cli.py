import argparse
import hashlib
import inspect
import sys

import numpy as np
import pytest

import qng.cli
import qng.error_model
import qng.witness
from qng.bounds import pure_bound
from qng.cli import MAX_CUTOFF, build_parser, main
from qng.quasiprob import S_MIN
from qng.witness import StateFamily, witness_at_loss


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBoundCurve:
    def test_husimi_first_row(self, capsys):
        code, out = run_cli(["bound-curve", "--s", "-1", "--n-max", "1",
                             "--step", "0.5"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,bound,m_opt"
        assert float(lines[1].split(",")[1]) == pytest.approx(1 / np.pi,
                                                              abs=1e-12)

    def test_wigner_matches_closed_form(self, capsys):
        code, out = run_cli(["bound-curve", "--s", "0", "--n-max", "2",
                             "--step", "0.1"], capsys)
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            n, b, _ = (float(v) for v in line.split(","))
            assert b == pytest.approx(2 / np.pi * np.exp(-2 * n * (1 + n)),
                                      abs=1e-9)

    @pytest.mark.parametrize("argv,underflowed", [
        ("--s -1 --n-max 1000 --step 250", [500.0, 750.0, 1000.0]),
        ("--s 0 --n-max 30 --step 10", [20.0, 30.0]),
    ])
    def test_m_opt_where_the_bound_underflows(self, argv, underflowed, capsys):
        # the minimizer's objective is 0.0 there, and it printed m_opt 118.03
        # at n = 500 and 0 at n = 750, 1000 (s = -1), 7.639 and 22.918 at
        # n = 20, 30 (s = 0), where the roots are 10.570, 13.080, 15.197 and
        # n^2 / (2n + 1) = 9.756, 14.754
        code, out = run_cli(["bound-curve", *argv.split()], capsys)
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.split()[1:]]
        assert [n for n, bound, _ in rows if bound < sys.float_info.min] == underflowed
        s = float(argv.split()[1])
        for n, _, m_opt in rows:
            exact = pure_bound(n, s)[1]
            assert abs(m_opt - exact) <= 1e-6 * max(1.0, n)
            if n in underflowed:
                assert m_opt == pytest.approx(exact, rel=1e-9)
                if s == 0:
                    assert m_opt == pytest.approx(n * n / (2 * n + 1), rel=1e-15)

    def test_positive_s_rejected(self, capsys):
        code, _ = run_cli(["bound-curve", "--s", "0.5", "--n-max", "1",
                           "--step", "0.5"], capsys)
        assert code == 2

    def test_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "curve.csv"
        code, _ = run_cli(["bound-curve", "--s", "-1", "--n-max", "1",
                           "--step", "0.5", "--out", str(out_file)], capsys)
        assert code == 0
        assert out_file.read_text().startswith("n,bound,m_opt")

    def test_unwritable_out_rejected(self, tmp_path, capsys):
        # a missing directory used to end in a FileNotFoundError traceback
        out_file = tmp_path / "missing" / "x.csv"
        code = main(["witness-curve", "--family", "fock", "--m", "2", "--s",
                     "0", "--eps", "0.3", "--out", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert not out_file.exists()


class TestThreshold:
    def test_fock_scan_header_and_sentinel(self, capsys):
        code, out = run_cli(["threshold", "--family", "fock", "--m", "1",
                             "--s", "0,-1", "--criterion", "a",
                             "--tol", "1e-4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family_param,s,criterion,epsilon_star"
        assert lines[1].split(",")[3] == "one"

    def test_fock_range(self, capsys):
        code, out = run_cli(["threshold", "--family", "fock", "--m", "2..3",
                             "--s", "0", "--criterion", "a",
                             "--tol", "1e-4"], capsys)
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_non_integer_fock_number_rejected(self, capsys):
        code, _ = run_cli(["threshold", "--family", "fock", "--m", "1.5",
                           "--s", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("cutoff", ["0", "-3"])
    def test_cutoff_below_one_rejected(self, cutoff, capsys):
        # m = 1 lies above the cutoff: this used to exit 3 (truncation)
        assert main(["threshold", "--family", "fock", "--m", "1", "--s", "0",
                     "--cutoff", cutoff]) == 2
        assert "--cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--cutoff", str(MAX_CUTOFF + 1)],
        ["--cutoff", "1000000000"],
    ], ids=["flag", "huge-flag"])
    def test_cutoff_above_ceiling_rejected(self, monkeypatch, capsys, argv):
        # a huge cutoff used to be killed from outside instead of exiting 3
        def no_guard(family, cutoff):
            raise AssertionError(f"family guarded at cutoff {cutoff}")

        monkeypatch.setattr(qng.witness, "_guard", no_guard)
        assert main(["threshold", "--family", "fock", "--m", "1", "--s", "0",
                     *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--cutoff" in captured.err and str(MAX_CUTOFF) in captured.err

    def test_cutoff_at_ceiling_accepted(self):
        from qng.cli import build_parser
        args = build_parser().parse_args(
            ["threshold", "--family", "fock", "--m", "1", "--s", "0",
             "--cutoff", str(MAX_CUTOFF)])
        assert args.cutoff == MAX_CUTOFF

    @pytest.mark.parametrize("tol", ["0.6", "0.9", "1"])
    def test_tol_above_half_rejected(self, capsys, tol):
        # the scan used to run from high loss to low loss and answer "one"
        code = main(["threshold", "--family", "fock", "--m", "3", "--s", "0",
                     "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be in [1e-6, 0.5]")
        assert captured.err.count("\n") == 1

    def test_huge_pss_squeezing_is_numerical_failure(self, capsys):
        # cosh r and sinh r cancel: this used to exit 2 on a trace check
        code = main(["threshold", "--family", "pss", "--r", "400", "--s", "0",
                     "--criterion", "b"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag,value,what", [
        ("--alpha", "1e154", "PAC alpha=1e+154"),
        ("--alpha", "1e155", "PAC alpha=1e+155"),
        ("--alpha", "1e200", "PAC alpha=1e+200"),
        ("--r", "1e10", "PSS r=1e+10")])
    @pytest.mark.parametrize("criterion", ["a", "b"])
    def test_member_too_large_for_floating_point_is_numerical_failure(
            self, capsys, flag, value, what, criterion):
        # these used to exit 2 on a mean photon number of nan, or exit 3
        # with an overflow message that named no member
        family = "pac" if flag == "--alpha" else "pss"
        code = main(["threshold", "--family", family, flag, value, "--s", "-1",
                     "--criterion", criterion])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")
        assert captured.err.count("\n") == 1
        assert what in captured.err

    def test_missing_family_param(self, capsys):
        code, _ = run_cli(["threshold", "--family", "pac", "--s", "0"],
                          capsys)
        assert code == 2

    @pytest.mark.parametrize("criterion", ["a", "b"])
    def test_vacuum_is_never_certified(self, capsys, criterion):
        code, out = run_cli(["threshold", "--family", "fock", "--m", "0",
                             "--s", "-2.69", "--criterion", criterion], capsys)
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[3] == "none"


class TestWitnessCurve:
    def test_fock1_start_value(self, capsys):
        code, out = run_cli(["witness-curve", "--family", "fock", "--m", "1",
                             "--s", "0", "--eps", "0..0.2",
                             "--eps-step", "0.1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "epsilon,s,delta"
        first = float(lines[1].split(",")[2])
        assert first == pytest.approx(-2 / np.pi - 2 / np.pi * np.exp(-4),
                                      abs=1e-9)

    @pytest.mark.parametrize("family,flag,value,criterion", [
        ("fock", "--m", "3", "a"), ("pac", "--alpha", "2", "a"),
        ("pss", "--r", "1.0", "a"), ("fock", "--m", "2", "b"),
        ("pac", "--alpha", "2", "b"), ("pss", "--r", "0.5", "b")])
    def test_guards_once_and_rows_match_witness_at_loss(
            self, monkeypatch, capsys, family, flag, value, criterion):
        guarded = []
        guard = qng.witness._guard

        def counted_guard(family, cutoff):
            guarded.append(cutoff)
            return guard(family, cutoff)

        monkeypatch.setattr(qng.witness, "_guard", counted_guard)
        code, out = run_cli(["witness-curve", "--family", family, flag, value,
                             "--s", "0,-1,-2.5", "--eps", "0..1",
                             "--eps-step", "0.125", "--criterion", criterion],
                            capsys)
        monkeypatch.undo()
        assert code == 0
        assert guarded == [80]
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(float(e), float(s)) for e, s, _ in rows] == [
            (k / 8, s) for k in range(9) for s in (0.0, -1.0, -2.5)]
        member = StateFamily(family, float(value))
        for eps, s, delta in rows:
            rep = witness_at_loss(member, float(s), float(eps), criterion)
            assert abs(float(delta) - rep.delta) <= 1e-14

    @pytest.mark.parametrize("command", ["witness-curve", "threshold"])
    @pytest.mark.parametrize("criterion", ["a", "b"])
    def test_family_past_the_cutoff_is_numerical_failure(self, capsys, command,
                                                         criterion):
        # the witness is a closed form, but the cutoff still refuses a
        # family member it cannot hold
        code = main([command, "--family", "pac", "--alpha", "2", "--s", "-1",
                     "--eps", "0.5", "--criterion", criterion, "--cutoff", "5"]
                    if command == "witness-curve" else
                    [command, "--family", "pac", "--alpha", "2", "--s", "-1",
                     "--criterion", criterion, "--cutoff", "5"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("numerical failure:")

    def test_vacuum_not_supported_as_family(self, capsys):
        code, _ = run_cli(["witness-curve", "--family", "fock", "--m", "0..1",
                           "--step", "1", "--s", "0", "--eps", "0"], capsys)
        assert code == 2  # a curve takes exactly one family member

    def test_family_step_is_not_a_flag(self, capsys):
        # a curve takes one family member, so it has no family --step
        code, _ = run_cli(["witness-curve", "--family", "pac", "--alpha", "2",
                           "--step", "1", "--s", "0", "--eps", "0"], capsys)
        assert code == 2
        with pytest.raises(SystemExit):
            main(["witness-curve", "--help"])
        assert "--step" not in capsys.readouterr().out.replace("--eps-step", "")

    @pytest.mark.parametrize("s,code", [
        (S_MIN, 0), (np.nextafter(S_MIN, -np.inf), 2), (-1e200, 2)],
        ids=["floor", "past-floor", "huge"])
    def test_ordering_parameter_floor(self, capsys, s, code):
        # below the floor the bound and the criterion-b ordering overflowed:
        # a RuntimeWarning and delta nan, with exit 0
        got = main(["witness-curve", "--family", "pac", "--alpha", "2",
                    f"--s={float(s)!r}", "--eps", "0.5", "--criterion", "b"])
        captured = capsys.readouterr()
        assert got == code
        if code == 0:
            delta = float(captured.out.strip().split("\n")[1].split(",")[2])
            assert np.isfinite(delta)
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: ordering parameter")


@pytest.mark.parametrize("args", [
    ["error-bars", "--s", "-1", "--n-avg", "0..1", "--step", "inf"],
    ["error-bars", "--s", "-1", "--n-avg", "0..1", "--step", "nan"],
    ["error-bars", "--s", "-1", "--n-avg", "0..inf", "--step", "0.5"],
    ["witness-curve", "--family", "fock", "--m", "1", "--s", "0",
     "--eps", "0..nan", "--eps-step", "0.1"],
    ["witness-curve", "--family", "fock", "--m", "1", "--s", "0",
     "--eps=-inf..0.5", "--eps-step", "0.1"],
    ["threshold", "--family", "pac", "--alpha", "3..1", "--s", "0"],
    ["error-bars", "--s", ",", "--n-avg", "1"],
], ids=["step-inf", "step-nan", "end-inf", "end-nan", "start-inf",
        "reversed", "empty-s"])
def test_bad_range_rejected(args, capsys):
    code, out = run_cli(args, capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", [
    ["witness-curve", "--eps", "0.3"], ["threshold"]])
def test_nbar_slack_is_not_a_flag(command, capsys):
    # family witnesses are closed forms with exact moments: no mean photon
    # number is left out, so there is no slack to allow for
    assert main([*command, "--family", "fock", "--m", "2", "--s", "0",
                 "--nbar-slack", "0"]) == 2
    assert "unrecognized arguments: --nbar-slack" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,criterion", [
    ("--alpha", "nan", "b"), ("--alpha", "-2", "a"), ("--r", "inf", "b"),
    ("--r", "-0.5", "a"), ("--m", "-1", "a"),
])
def test_family_parameter_out_of_range(flag, value, criterion, capsys):
    family = {"--alpha": "pac", "--r": "pss", "--m": "fock"}[flag]
    code = main(["witness-curve", "--family", family, flag, value, "--s", "0",
                 "--eps", "0.3", "--criterion", criterion])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f" {flag[2:]} must be" in captured.err


@pytest.mark.parametrize("args,err", [
    (["witness-curve", "--family", "fock", "--m", "1", "--s", "0",
      "--eps", "0..0.5"], "error: range arguments need a positive finite --eps-step\n"),
    (["witness-curve", "--family", "pac", "--alpha", "1..2", "--s", "0",
      "--eps", "0.5"], "error: witness-curve takes one family member, not '1..2'\n"),
    (["threshold", "--family", "pac", "--alpha", "2", "--m", "3", "--r", "9",
      "--s", "0"], "error: argument --m: not allowed with argument --alpha\n"),
    (["threshold", "--family", "pac", "--m", "3", "--s", "0"],
     "error: --family pac needs its parameter flag --alpha\n"),
    (["threshold", "--family", "fock", "--m", "1", "--s", "0", "--cutoff", "1.5"],
     "error: argument --cutoff: invalid cutoff value: '1.5'\n"),
], ids=["eps-range-without-eps-step", "curve-family-range", "three-family-flags",
        "another-familys-flag", "cutoff-not-an-integer"])
def test_error_names_the_flag_typed(args, err, capsys):
    # the first two used to name a --step, which witness-curve has not, and
    # the flags of another family were ignored
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("args", [
    ["error-bars", "--s", "-1", "--n-avg", "1e17..1e17", "--step", "1"],
    # 2**53 + 1 rounds back to 2**53, so the range stops advancing midway
    ["error-bars", "--s", "-1", "--n-avg",
     "9007199254740982..9007199254740999", "--step", "1"],
    ["error-bars", "--s", "-1", "--n-avg", "0..1", "--step", "1e-300"],
    ["witness-curve", "--family", "fock", "--m", "1", "--s", "0",
     "--eps", "0..1", "--eps-step", "1e-7"],
    ["bound-curve", "--s", "0", "--n-max", "1e17", "--step", "1"],
], ids=["no-progress", "stalls", "too-many", "eps-too-many", "bound-curve"])
def test_huge_grid_rejected(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("args,name", [
    (["bound-curve", "--s", "-1", "--n-max", "nan", "--step", "0.1"], "n_max"),
    (["bound-curve", "--s", "-1", "--n-max", "inf", "--step", "0.1"], "n_max"),
    (["bound-curve", "--s", "-1", "--n-max", "-1", "--step", "0.1"], "n_max"),
    (["bound-curve", "--s", "-1", "--n-max", "1e80", "--step", "1e78"], "n_max"),
    (["bound-curve", "--s", "-1", "--n-max", "1", "--step", "nan"], "step"),
    (["bound-curve", "--s", "-1", "--n-max", "1", "--step", "inf"], "step"),
    (["bound-curve", "--s", "-1", "--n-max", "1", "--step", "0"], "step"),
    (["error-bars", "--s", "-1", "--n-avg", "nan"], "n_avg"),
    (["error-bars", "--s", "-1", "--n-avg", "inf"], "n_avg"),
    (["error-bars", "--s", "-1", "--n-avg", "-0.5"], "n_avg"),
    (["error-bars", "--s", "-1", "--n-avg", "1", "--k", "0"], "k"),
], ids=["n-max-nan", "n-max-inf", "n-max-negative", "n-max-above-limit",
        "step-nan", "step-inf",
        "step-zero", "n-avg-nan", "n-avg-inf", "n-avg-negative", "k-zero"])
def test_bad_number_named_in_its_own_error(args, name, capsys):
    # these used to print numpy's "arange: cannot compute length" or a
    # Poisson support of nan counts
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name} must be")
    assert captured.err.count("\n") == 1


def test_long_range_kept_by_accumulation():
    from qng.bounds import MAX_GRID_POINTS
    from qng.cli import parse_range
    values = parse_range("0..1", 1e-5)
    assert len(values) == 100_001 <= MAX_GRID_POINTS
    v, expected = 0.0, []
    while v <= 1.0 + 1e-14:
        expected.append(round(v, 12))
        v += 1e-5
    assert values == expected


class TestErrorBars:
    def test_metadata_and_normalization(self, capsys):
        code, out = run_cli(["error-bars", "--s", "0,-1", "--n-avg", "0",
                             "--k", "50"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "# k=50"
        assert lines[1] == "s,n_avg,mean,std"
        for line in lines[2:]:
            _, _, mean, std = (float(v) for v in line.split(","))
            assert mean == 1.0 and std == 0.0

    @pytest.mark.parametrize("n_avg,k", [("1", "10000000"), ("1e12", "100")],
                             ids=["huge-k", "nan-quantile"])
    def test_huge_poisson_support_rejected(self, monkeypatch, capsys, n_avg, k):
        def no_bound(*args):
            raise AssertionError("pure_bound called past the support cap")

        monkeypatch.setattr(qng.error_model, "_minimized_bound", no_bound)
        code = main(["error-bars", "--s", "-1", "--n-avg", n_avg, "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv,code", [
    (["threshold", "--family", "fock", "--m", "1..3", "--s", "0",
      "--cutoff", "2"], 3),
    (["error-bars", "--s", "-1", "--n-avg", "0..1", "--step", "1",
      "--k", "10000000"], 2)], ids=["threshold", "error-bars"])
def test_failing_row_writes_no_out_file(tmp_path, capsys, argv, code):
    # the first rows succeed; the whole text is built before --out is opened
    out_file = tmp_path / "rows.csv"
    assert main([*argv, "--out", str(out_file)]) == code
    assert capsys.readouterr().out == ""
    assert not out_file.exists()


def test_out_of_memory_is_numerical_failure(monkeypatch, capsys):
    def no_memory(family, cutoff):
        raise MemoryError(f"Unable to allocate the cutoff {cutoff} state")

    monkeypatch.setattr(qng.witness, "_guard", no_memory)
    code = main(["threshold", "--family", "fock", "--m", "1", "--s", "0",
                 "--cutoff", str(MAX_CUTOFF)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("numerical failure: Unable to allocate the cutoff "
                            f"{MAX_CUTOFF} state\n")


README_COMMANDS = {  # sha256 of each README CLI command's CSV (x86-64, numpy 2.4)
    "bound-curve --s -1 --n-max 5 --step 0.1":
        "444ff34ffd9f590a0ab1d7d6ca72378a4b4cedd23804af9405fd26e6d17d2a6a",
    "threshold --family fock --m 1..5 --s 0,-0.5,-1,-2 --criterion a":
        "6275b6bfa6d6f537e7e02e764f1f9801552a5fd6d2039503859473999c2e5fe1",
    "witness-curve --family pac --alpha 2 --s -1 --eps 0..0.99 --eps-step 0.01":
        "1071d6eb9b1d6f4342822687aae24ed05411748e7b9d36323804c2b5dba6b710",
    "error-bars --s 0,-1 --n-avg 0..2 --step 0.25 --k 100":
        "8bdbb0ca7805b47396595f32a6a8d27e26897c83d681f05462ab817e0a8ac47c",
}


TABLE_COMMANDS = {  # more bound tables, same platform as README_COMMANDS
    "bound-curve --s 0 --n-max 2 --step 0.25":
        "c6ed7085802bc8fecb31a09c46e1c63688c399815d565bba2b2f325e2845ce55",
    "bound-curve --s -2.5 --n-max 0.3 --step 0.1":
        "1fe2ac4c07b19f2c1e15fcae65f5c9c3482ff04afd5e9a44437760d367387a2a",
    "bound-curve --s -0 --n-max 0.5 --step 0.25":
        "dc7b1831e4b606baa47cb02bcab26126ee2d7e3d7ca7cb44fbe7ac9f2e10d6e3",
    "error-bars --s -1 --n-avg 0.5 --k 20":
        "ca3d42acc39c1b01a424ad7ccdc34608c5c9780b28674ac1b7598329c8881dab",
    "error-bars --s -0.25,-3 --n-avg 0..1 --step 0.5 --k 7":
        "00e1577febff359afad65c1ba6e0625abcb203fabe27699feff98280618fed37",
    "error-bars --s -0,-1.5 --n-avg 0.25 --k 3":
        "7c19ee4e872b8efa97cc4e2cceb94095d67fa6784bd81ef1f41985227609d63b",
}


@pytest.mark.parametrize("command", [*README_COMMANDS, *TABLE_COMMANDS])
def test_readme_commands_print_the_recorded_csv(command, capsys):
    # the default CSV is part of the public surface: a change that moves a
    # byte of it must say so and record the new digest
    code, out = run_cli(command.split(), capsys)
    assert code == 0
    digest = {**README_COMMANDS, **TABLE_COMMANDS}[command]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["error-bars", "--s", "0.5", "--n-avg", "1", "--k", "0"],
    ["error-bars", "--s", "-1,0.5", "--n-avg", "0..10", "--step", "0.25",
     "--k", "100"],
], ids=["bad-k", "late-s"])
def test_error_bars_names_a_bad_s_before_a_bad_k(monkeypatch, capsys, argv):
    def computed(*args):
        raise AssertionError("a row was computed before s was checked")

    monkeypatch.setattr(qng.cli, "normalized_bound_stats", computed)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ordering parameter")


def test_deterministic_output(capsys):
    args = ["bound-curve", "--s", "-2", "--n-max", "3", "--step", "0.25"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_17_significant_digits(capsys):
    _, out = run_cli(["bound-curve", "--s", "-1", "--n-max", "1",
                      "--step", "1"], capsys)
    value = out.strip().split("\n")[1].split(",")[1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 16


@pytest.mark.parametrize("env", ["0", "abc", str(MAX_CUTOFF + 1)])
def test_default_cutoff_ignores_the_environment(monkeypatch, env):
    # --cutoff is the one way to set the cutoff; the environment is not read
    from qng.cli import build_parser
    monkeypatch.setenv("QNG_DEFAULT_CUTOFF", env)
    argv = ["threshold", "--family", "fock", "--m", "1", "--s", "0"]
    assert build_parser() is build_parser()  # built once per process
    assert build_parser().parse_args(argv).cutoff == 80
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["--cutoff", "0"], ["--cutoff", "1000000000"], ["--tol", "x"],
    ["--bogus"]], ids=["cutoff-0", "cutoff-huge", "tol", "unknown"])
def test_flag_error_is_one_line(capsys, argv):
    # argparse used to print the usage lines and raise SystemExit
    code = main(["threshold", "--family", "fock", "--m", "1", "--s", "0", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("s_arg,s_values", [
    ("-1,-2", [-1.0, -2.0]), ("-1E+2,-3", [-100.0, -3.0]), ("-.5", [-0.5]),
    ("-1e-3", [-0.001])])
def test_threshold_reads_negative_s_as_value(s_arg, s_values, capsys):
    code, out = run_cli(["threshold", "--family", "fock", "--m", "1",
                         "--s", s_arg, "--tol", "1e-3"], capsys)
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [float(row.split(",")[1]) for row in rows] == s_values


def test_bound_curve_reads_exponent_s_as_value(capsys):
    code, out = run_cli(["bound-curve", "--s", "-1e-1", "--n-max", "1",
                         "--step", "0.1"], capsys)
    assert code == 0
    assert out.startswith("n,bound,m_opt\n")


@pytest.mark.parametrize("argv", [
    ["bound-curve", "--s", "--n-max", "1", "--step", "0.1"],
    ["threshold", "--family", "fock", "--m", "1", "--s"]])
def test_missing_value_still_rejected(argv, capsys):
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == "error: argument --s: expected one argument\n"


def test_out_dash_still_writes_stdout(capsys):
    code, out = run_cli(["bound-curve", "--s", "-1", "--n-max", "0.5",
                         "--step", "0.5", "--out", "-"], capsys)
    assert code == 0
    assert out.startswith("n,bound,m_opt\n")


def test_negative_number_matcher_is_argparse_attribute():
    # the parser overrides a private argparse attribute: a Python whose
    # argparse no longer reads it must fail here, not parse -1,-2 as a flag
    assert "self._negative_number_matcher.match(arg_string)" in inspect.getsource(
        argparse.ArgumentParser)
    sub = build_parser()._subparsers._group_actions[0].choices["threshold"]
    assert sub._negative_number_matcher.pattern == r"-\.?\d"
