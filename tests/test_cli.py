"""Command-line behaviour: frozen examples, exit codes, canonical JSON,
golden outputs, determinism, and the selftest harness."""

import dataclasses
import json
import os

import pytest

from redeiperm import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "v1")


def _golden(name: str) -> str:
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


def test_construct_text_q11(capsys):
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "unreduced: 3*x^23 + x^3" in out
    assert "reduced:   3*x^23 + x^3" in out
    assert "gcd = 1 -> pass" in out
    assert "verdict: permutation" in out
    assert "result: verdict confirmed" in out


def test_construct_text_q7_failure_case(capsys):
    rc = cli.main(["construct", "--p", "7", "--variant", "H", "--n", "3"])
    out = capsys.readouterr().out
    assert rc == 0  # the verdict is confirmed even though P is no permutation
    assert "gcd = 3 -> FAIL" in out
    assert "verdict: not a permutation" in out
    assert "result: verdict confirmed" in out


def test_construct_text_trivial(capsys):
    rc = cli.main(["construct", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reduced:   x" in out


def test_construct_text_negative_exponent_and_extension_coeffs(capsys):
    rc = cli.main(["construct", "--p", "3", "--k", "2", "--variant", "G",
                   "--n", "5", "--l", "1", "--m", "-2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha = (0,2,2,1)" in out
    assert "unreduced: x^25 + (0,2,2,1)*x^9 + (1,0,1,2)*x^(-7)" in out


def test_construct_golden_q11(capsys):
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3",
                   "--m", "0", "--l", "0", "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == _golden("construct_q11_h3.json")


def test_construct_golden_q9(capsys):
    rc = cli.main(["construct", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "3", "--m", "0", "--l", "2", "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == _golden("construct_q9_h3_l2.json")


def test_invert_golden(capsys):
    rc = cli.main(["invert", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "3", "--m", "0", "--l", "2", "--route", "all",
                   "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == _golden("invert_q9_all.json")


def test_count_golden(capsys):
    rc = cli.main(["count", "--p", "3", "--k", "2", "--k-max", "5",
                   "--format", "json"])
    assert rc == 0
    assert capsys.readouterr().out == _golden("count_p3.json")


def test_repeated_runs_are_byte_identical(capsys):
    args = ["construct", "--p", "5", "--variant", "G", "--n", "3", "--m", "1",
            "--l", "1", "--format", "json"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    assert capsys.readouterr().out == first
    json.loads(first)  # canonical JSON parses


def test_json_shape(capsys):
    cli.main(["construct", "--p", "11", "--variant", "H", "--n", "5",
              "--m", "-1", "--l", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"field", "spec", "poly", "poly_unreduced", "verdict",
                        "oracle", "verified"}
    assert doc["oracle"]["ran"] is True
    assert doc["verified"] is True
    assert all(1 <= e <= 120 for e, _ in doc["poly"])
    # negative m leaves the constant term's unreduced exponent negative:
    # the record is faithful to x^r H_n(x^(q-1)) before reduction
    assert min(e for e, _ in doc["poly_unreduced"]) == 5 - 12


def test_skip_oracle(capsys):
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3",
                   "--skip-oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "oracle: skipped" in out


def test_invert_routes_individually(capsys):
    base = ["invert", "--p", "3", "--k", "2", "--variant", "H", "--n", "3",
            "--m", "0", "--l", "2"]
    for route in ("cyclotomic", "closed", "table", "all"):
        rc = cli.main(base + ["--route", route])
        out = capsys.readouterr().out
        assert rc == 0, route
        assert "composition with P is the identity: verified" in out


def test_invert_rejects_non_permutation(capsys):
    rc = cli.main(["invert", "--p", "7", "--variant", "H", "--n", "3",
                   "--route", "cyclotomic"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "failing conditions" in out


def test_invert_closed_refusal(capsys):
    rc = cli.main(["invert", "--p", "3", "--k", "2", "--variant", "G",
                   "--n", "5", "--route", "closed"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "the closed-form lift does not apply" in out


def test_invert_all_still_agrees_without_closed(capsys):
    rc = cli.main(["invert", "--p", "3", "--k", "2", "--variant", "G",
                   "--n", "5", "--route", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "route closed skipped" in out
    assert "agreement: yes" in out


def test_invert_table_on_non_permutation(capsys):
    rc = cli.main(["invert", "--p", "7", "--variant", "H", "--n", "3",
                   "--route", "table"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "both map to" in out


def test_count_text(capsys):
    rc = cli.main(["count", "--p", "3", "--k", "2", "--k-max", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4/8 admissible n, ratio 0.500000" in out
    assert "12/26 admissible n, ratio 0.461538" in out


def test_selftest_quick(capsys):
    rc = cli.main(["selftest", "--level", "quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "12 checks: 12 passed, 0 failed [quick]" in out


def test_selftest_json(capsys):
    rc = cli.main(["selftest", "--level", "quick", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["passed"] is True
    assert len(doc["checks"]) == 12
    assert all(c["passed"] for c in doc["checks"])


def test_selftest_detects_corrupted_kernel(capsys, monkeypatch):
    """An injected corruption of the evaluation kernel must surface as a
    failure of the defining expansion identity."""
    real = cli.gh_eval

    def corrupted(n, alpha, x):
        g, h = real(n, alpha, x)
        return g + 1, h

    monkeypatch.setattr(cli, "gh_eval", corrupted)
    rc = cli.main(["selftest", "--level", "quick"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL expansion identity (x+s)^n = G_n + H_n*s" in out


def test_selftest_detects_corrupted_coefficients(capsys, monkeypatch):
    """Corrupting the coefficient form must surface at the same check."""
    real = cli.gh_coeffs

    def corrupted(n, alpha, cap=10 ** 4):
        pair = real(n, alpha, cap)
        return dataclasses.replace(pair, g=pair.h, h=pair.g)

    monkeypatch.setattr(cli, "gh_coeffs", corrupted)
    rc = cli.main(["selftest", "--level", "quick"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL expansion identity (x+s)^n = G_n + H_n*s" in out
    assert "coefficients disagree with point evaluation" in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3",
                   "--format", "json", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["verified"] is True


def test_bad_parameters_exit_2(capsys):
    rc = cli.main(["construct", "--p", "2", "--variant", "H", "--n", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "0"])
    assert rc == 2


@pytest.mark.parametrize("argv,message", [
    (["--p", "3", "--k", "0"], "k must be a positive integer"),
    (["--p", "1"], "p=1 is not an odd prime"),
    (["--p", "4"], "p=4 is not an odd prime"),
    (["--p", "3", "--k", "3", "--k-max", "2"], "k-max = 2 is below k = 3"),
    (["--p", "3", "--k", "2", "--k-max", "5", "--size-bound", "100"],
     "q - 1 = 3^5 - 1 exceeds the size bound 100"),
    (["--p", "3", "--k-max", "10000000000000", "--size-bound", "1000"],
     "q - 1 = 3^10000000000000 - 1 exceeds the size bound 1000"),
], ids=["k-zero", "p-one", "p-even", "k-max-below-k", "over-size-bound",
        "huge-k-max"])
def test_count_refuses_bad_ranges(capsys, argv, message):
    rc = cli.main(["count", *argv])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_arithmetic_check_failure_exits_3(capsys, monkeypatch):
    from redeiperm import redei
    real = redei._gh_coeffs_binomial

    def corrupted(n, alpha):
        g, h = real(n, alpha)
        return h, g

    monkeypatch.setattr(redei, "_gh_coeffs_binomial", corrupted)
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: recursion and binomial closed form")


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3",
                   "--out", str(target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.exists()


def test_size_bound_flag(capsys):
    rc = cli.main(["construct", "--p", "5", "--k", "2", "--variant", "H",
                   "--n", "3", "--size-bound", "100"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exceeds the size bound" in err


def test_size_bound_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_SIZE_BOUND, "100")
    rc = cli.main(["construct", "--p", "5", "--k", "2", "--variant", "H",
                   "--n", "3"])
    assert rc == 2
    monkeypatch.setenv(cli.ENV_SIZE_BOUND, "not-a-number")
    with pytest.raises(SystemExit):
        cli.main(["construct", "--p", "5", "--variant", "H", "--n", "3"])


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_large_l_is_reduced(capsys):
    rc = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3",
                   "--l", "25", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["spec"]["l"] == 25
    ref = cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3",
                    "--l", "1", "--format", "json"])
    ref_doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["alpha"] == ref_doc["spec"]["alpha"]
