import numpy as np
import pytest

import qng.error_model
from qng.cli import main
from qng.witness import StateFamily


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
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--family", "fock", "--m", "1", "--s", "0",
                  "--cutoff", cutoff])
        assert exc.value.code == 2
        assert "--cutoff" in capsys.readouterr().err

    def test_missing_family_param(self, capsys):
        code, _ = run_cli(["threshold", "--family", "pac", "--s", "0"],
                          capsys)
        assert code == 2


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

    def test_vacuum_not_supported_as_family(self, capsys):
        code, _ = run_cli(["witness-curve", "--family", "fock", "--m", "0..1",
                           "--step", "1", "--s", "0", "--eps", "0"], capsys)
        assert code == 2  # a curve takes exactly one family member


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

        monkeypatch.setattr(qng.error_model, "pure_bound", no_bound)
        code = main(["error-bars", "--s", "-1", "--n-avg", n_avg, "--k", k])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


def test_out_of_memory_is_numerical_failure(monkeypatch, capsys):
    def no_memory(self, cutoff):
        raise MemoryError(f"Unable to allocate the cutoff {cutoff} state")

    monkeypatch.setattr(StateFamily, "build", no_memory)
    code = main(["threshold", "--family", "fock", "--m", "1", "--s", "0",
                 "--cutoff", "100000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("numerical failure: Unable to allocate the cutoff "
                            "100000 state\n")


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


def test_default_cutoff_env(monkeypatch):
    monkeypatch.setenv("QNG_DEFAULT_CUTOFF", "64")
    from qng.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["threshold", "--family", "fock", "--m", "1",
                              "--s", "0"])
    assert args.cutoff == 64


def test_default_cutoff_env_not_integer(monkeypatch, capsys):
    monkeypatch.setenv("QNG_DEFAULT_CUTOFF", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--family", "fock", "--m", "1", "--s", "0"])
    assert exc.value.code == 2
    assert "--cutoff" in capsys.readouterr().err


def test_default_cutoff_env_below_one(monkeypatch, capsys):
    monkeypatch.setenv("QNG_DEFAULT_CUTOFF", "0")
    with pytest.raises(SystemExit) as exc:
        main(["threshold", "--family", "fock", "--m", "1", "--s", "0"])
    assert exc.value.code == 2
    assert "--cutoff" in capsys.readouterr().err
