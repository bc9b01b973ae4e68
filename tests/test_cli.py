"""Command-line behaviour: frozen examples, exit codes, canonical JSON,
golden outputs, determinism, and the selftest harness."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import cli_corpus
from redeiperm import cli, construct
from redeiperm.inverse import ROUTES
from redeiperm.redei import GH_DEGREE_CAP

DATA = os.path.join(os.path.dirname(__file__), "data", "v1")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


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


def test_construct_builds_the_coefficient_form_once(capsys, monkeypatch):
    """The reduced and the unreduced polynomial come from one gh_coeffs call."""
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = construct.gh_coeffs
    for module in (construct, cli):
        monkeypatch.setattr(module, "gh_coeffs", counted)
    assert cli.main(["construct", "--p", "11", "--variant", "H", "--n", "3"]) == 0
    assert "unreduced: 3*x^23 + x^3" in capsys.readouterr().out
    assert len(calls) == 1


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


_Q9_H3 = ["--p", "3", "--k", "2", "--variant", "H", "--n", "3", "--m", "0",
          "--l", "2"]
_Q9_H3_INVERT = ["invert", *_Q9_H3, "--route"]
# golden file stem -> (argv without --format, exit code); the first four are
# the golden commands whose JSON the tests above pin
GOLDEN_RUNS = {
    "construct_q11_h3": (["construct", "--p", "11", "--variant", "H",
                          "--n", "3", "--m", "0", "--l", "0"], 0),
    "construct_q9_h3_l2": (["construct", *_Q9_H3], 0),
    "invert_q9_all": ([*_Q9_H3_INVERT, "all"], 0),
    "count_p3": (["count", "--p", "3", "--k", "2", "--k-max", "5"], 0),
    "invert_q9_cyclotomic": ([*_Q9_H3_INVERT, "cyclotomic"], 0),
    "invert_q9_closed": ([*_Q9_H3_INVERT, "closed"], 0),
    "invert_q9_table": ([*_Q9_H3_INVERT, "table"], 0),
    "invert_q9_g5_closed_refused": (["invert", "--p", "3", "--k", "2",
                                     "--variant", "G", "--n", "5",
                                     "--route", "closed"], 1),
}


@pytest.mark.parametrize("name,fmt", [
    *((name, "txt") for name in GOLDEN_RUNS),
    *((name, "json") for name in list(GOLDEN_RUNS)[4:]),
    ("selftest_quick", "json"),
])
def test_golden_output(capsys, name, fmt):
    """Every text and JSON shape the CLI writes, byte for byte.  selftest's
    text carries timings, so only its JSON is pinned."""
    argv, code = GOLDEN_RUNS.get(name, (["selftest", "--level", "quick"], 0))
    rc = cli.main(argv + ["--format", "text" if fmt == "txt" else "json"])
    assert rc == code
    assert capsys.readouterr().out == _golden(f"{name}.{fmt}")


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


def test_refused_invert_builds_no_evaluator(capsys, monkeypatch):
    """A non-permutation is refused before perm_coset_map runs, in cli or
    in inverse.route_inverse, except on the table route, which scans P
    for its collision witness."""
    from redeiperm import inverse

    calls = []
    real = cli.perm_coset_map

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for module in (cli, inverse):
        monkeypatch.setattr(module, "perm_coset_map", counted)
    argv = ["invert", "--p", "7", "--variant", "H", "--n", "3"]
    for route in ("closed", "cyclotomic", "all"):
        assert cli.main(argv + ["--route", route]) == 1
        assert "failing conditions" in capsys.readouterr().out
    assert calls == []
    assert cli.main(argv + ["--route", "table"]) == 1
    assert "both map to" in capsys.readouterr().out
    assert len(calls) == 1


@pytest.mark.parametrize("name,extra", [("invert_q9_all", []),
                                        ("construct_q11_h3", ["--skip-oracle"])])
def test_p_coset_map_is_built_only_where_it_is_read(capsys, monkeypatch, name,
                                                     extra):
    """invert --route all is confirmed by its own digests and never reads
    P's coset map in cli, and construct reads it only for its oracle:
    neither builds it here, and the text keeps its golden bytes, the
    oracle's two lines aside."""
    calls = []
    real = cli.perm_coset_map
    monkeypatch.setattr(cli, "perm_coset_map",
                        lambda spec: calls.append(spec) or real(spec))
    argv, code = GOLDEN_RUNS[name]
    assert cli.main(argv + extra) == code
    assert calls == []
    golden = _golden(f"{name}.txt")
    if extra:
        golden = golden[:golden.index("oracle: ")] + "oracle: skipped\n"
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("spec", [["--variant", "H"],
                                  ["--variant", "G", "--m", "1", "--l", "3"]],
                         ids=["H-l0", "G-m1-l3"])
def test_invert_reads_no_coefficient_form_above_its_cap(capsys, spec):
    """invert evaluates P through its coset table alone, so an n above the
    coefficient-form cap is inverted by all three routes; construct prints
    the coefficients and still refuses it."""
    cap = GH_DEGREE_CAP
    argv = ["--p", "11", "--n", str(cap + 1), *spec]
    assert cli.main(["invert", *argv, "--route", "all"]) == 0
    out = capsys.readouterr().out
    assert "routes computed: closed, cyclotomic, table" in out
    assert "agreement: yes" in out
    assert cli.main(["construct", *argv]) == 2
    assert capsys.readouterr().err == (
        f"error: n={cap + 1} exceeds the coefficient-form cap {cap}\n")


def test_invert_all_still_agrees_without_closed(capsys):
    rc = cli.main(["invert", "--p", "3", "--k", "2", "--variant", "G",
                   "--n", "5", "--route", "all"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "route closed skipped" in out
    assert "agreement: yes" in out


def test_invert_all_is_not_verified_without_the_table(capsys, monkeypatch):
    """The table route is the ground truth of route all: with it refused,
    the other routes still agree, but nothing is verified (exit 1), and
    cli builds no coset map of P to make up for it."""
    from redeiperm import inverse

    def refuse(*args, **kwargs):
        raise ValueError("table refused for the test")

    calls = []
    real = cli.perm_coset_map
    monkeypatch.setattr(cli, "perm_coset_map",
                        lambda spec: calls.append(spec) or real(spec))
    monkeypatch.setattr(inverse, "inverse_table", refuse)
    argv = ["invert", "--p", "3", "--k", "2", "--variant", "H", "--n", "3",
            "--m", "0", "--l", "2", "--route", "all"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert "route table skipped: table refused for the test" in out
    assert "agreement: yes" in out
    assert "composition with P is the identity: FAILED" in out
    assert cli.main(argv + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verified"] is False and doc["report"]["agree"] is True
    assert calls == []


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


def test_selftest_full(capsys):
    rc = cli.main(["selftest", "--level", "full"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "13 checks: 13 passed, 0 failed [full]" in out
    assert "PASS byte-identical repeated runs" in out


def test_selftest_runs_at_the_default_bound():
    """selftest's fields are fixed and small: the flag is not accepted."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--size-bound", "50"])
    assert exc.value.code == 2


def test_selftest_json(capsys):
    rc = cli.main(["selftest", "--level", "quick", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["passed"] is True
    assert len(doc["checks"]) == 12
    assert all(c["passed"] for c in doc["checks"])


def test_determinism_check(monkeypatch):
    """The full-level determinism check passes on the real commands and
    fails as soon as a second run writes different bytes."""
    cli._check_determinism()
    real = cli.cmd_construct
    runs = []

    def drifting(*args, **kwargs):
        runs.append(1)
        rc = real(*args, **kwargs)
        print(f"run {len(runs)}")
        return rc

    monkeypatch.setattr(cli, "cmd_construct", drifting)
    with pytest.raises(AssertionError, match="two identical runs differ"):
        cli._check_determinism()
    assert len(runs) == 2


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2)])
def test_zech_check_compares_the_stored_table_with_the_rule(monkeypatch, p, k):
    """The selftest's Zech check holds on the stored table built on first
    read, and fails when one of its entries differs from the table-free
    rule, although every add_packed sum is still right."""
    from redeiperm import field_tower
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    ctx = field_tower.make_field(p, k)
    assert ctx._zech_table is None
    cli._check_zech_against_digits(ctx)
    ctx._zech_table[1], ctx._zech_table[2] = ctx._zech[2], ctx._zech[1]
    with pytest.raises(AssertionError, match="stored Zech table differs"):
        cli._check_zech_against_digits(ctx)


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

    def corrupted(n, alpha):
        pair = real(n, alpha)
        return pair._replace(g=pair.h, h=pair.g)

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


@pytest.mark.parametrize("k", ["5000", "3000000"])
def test_large_k_refused_naming_the_bound(capsys, k):
    rc = cli.main(["construct", "--p", "3", "--k", k, "--variant", "H",
                   "--n", "3", "--m", "0", "--l", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"error: q^2 = 3^{2 * int(k)} exceeds the size "
                            f"bound {cli.DEFAULT_SIZE_BOUND}; its exp and log "
                            f"tables would take about 44*3^{2 * int(k)} "
                            f"bytes\n")


HUGE_P = 2 ** 61 - 1  # a Mersenne prime: trial division would take hours


@pytest.mark.parametrize("argv,message", [
    (["construct", "--p", str(HUGE_P), "--variant", "H", "--n", "3"],
     f"q^2 = {HUGE_P ** 2} exceeds the size bound {cli.DEFAULT_SIZE_BOUND}; "
     f"its exp and log tables would take about {44 * HUGE_P ** 2} bytes"),
    (["count", "--p", str(HUGE_P)],
     f"q - 1 = {HUGE_P}^1 - 1 exceeds the size bound {cli.DEFAULT_SIZE_BOUND}"),
], ids=["construct", "count"])
def test_huge_p_is_refused_by_the_bound_before_primality(argv, message):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-m", "redeiperm.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=10, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


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


def _power_form_off_mu(monkeypatch, inverse):
    real = inverse._mu_inverse_power_form
    monkeypatch.setattr(inverse, "_mu_inverse_power_form",
                        lambda inv, x: real(inv, x) * inv.ctx.gamma)
    monkeypatch.setattr(inverse, "_mu_inverse_rational_form", lambda inv, x: None)


def _rational_form_shifted(monkeypatch, inverse):
    real = inverse._mu_inverse_rational_form
    monkeypatch.setattr(inverse, "_mu_inverse_rational_form",
                        lambda inv, x: real(inv, x) * inv.ctx.zeta)


def _gh_table_with_a_zero(monkeypatch, inverse):
    real = inverse.gh_table
    monkeypatch.setattr(inverse, "gh_table", lambda *a: [0, *real(*a)[1:]])


def _mu_inverse_eval_shifted(monkeypatch, inverse):
    real = inverse.mu_inverse_eval
    monkeypatch.setattr(inverse, "mu_inverse_eval",
                        lambda inv, x: real(inv, x) * inv.ctx.zeta)


@pytest.mark.parametrize("corrupt,message", [
    (_rational_form_shifted,
     "power form and rational form of the coset inverse disagree"),
    (_power_form_off_mu, "coset inverse left mu_{q+1}"),
    (_gh_table_with_a_zero, "coset inverse left mu_{q+1}"),
    (_mu_inverse_eval_shifted,
     "mu-inverse table disagrees with mu_inverse_eval at zeta^0"),
], ids=["rational-vs-power", "mu-inverse-eval-leaves-mu",
        "mu-inverse-table-leaves-mu", "table-vs-mu-inverse-eval"])
def test_a_failed_closed_route_check_exits_3(capsys, monkeypatch, corrupt,
                                             message):
    """Each cross-check of the closed route, reached by corrupting one of
    its paths, fails the command with exit 3 and names the check."""
    from redeiperm import inverse
    corrupt(monkeypatch, inverse)
    rc = cli.main(["invert", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "3", "--l", "2", "--route", "closed"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_count_bounds_q_minus_1_and_the_field_commands_q_squared(capsys):
    """count compares q - 1 with the size bound, construct and invert
    compare q^2 (make_field); no second rule refuses a small bound."""
    rc = cli.main(["count", "--p", "3", "--size-bound", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "q =      3 (k = 1): 1/2 admissible n, ratio 0.500000\n"
    for command in ("construct", "invert"):
        rc = cli.main([command, "--p", "3", "--size-bound", "5",
                       "--variant", "H", "--n", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == ("error: q^2 = 9 exceeds the size bound 5; its "
                                "exp and log tables would take about 396 bytes\n")


@pytest.mark.parametrize("bound,rc,out,err", [
    (0, 2, "", "error: q - 1 = 3^1 - 1 exceeds the size bound 0\n"),
    (1, 2, "", "error: q - 1 = 3^1 - 1 exceeds the size bound 1\n"),
    (2, 0, "q =      3 (k = 1): 1/2 admissible n, ratio 0.500000\n", ""),
])
def test_count_compares_q_minus_1_with_the_smallest_bounds(capsys, bound, rc,
                                                            out, err):
    """At bound 0 the capped exponent is still at least 1, so q - 1 = 2 is
    compared with the bound and refused, as at bound 1; bound 2 admits it."""
    assert cli.main(["count", "--p", "3", "--size-bound", str(bound)]) == rc
    assert capsys.readouterr() == (out, err)


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


# Each subcommand's usage line, as argparse prints it at 80 columns.
USAGE = {
    "construct":
        "usage: redeiperm construct [-h] --p P [--k K] [--size-bound SIZE_BOUND]\n"
        "                           [--format {text,json}] [--out OUT] --variant {H,G}\n"
        "                           --n N [--m M] [--l L] [--skip-oracle]\n",
    "invert":
        "usage: redeiperm invert [-h] --p P [--k K] [--size-bound SIZE_BOUND]\n"
        "                        [--format {text,json}] [--out OUT] --variant {H,G} --n\n"
        "                        N [--m M] [--l L]\n"
        "                        [--route {cyclotomic,closed,table,all}]\n",
    "count":
        "usage: redeiperm count [-h] --p P [--k K] [--size-bound SIZE_BOUND]\n"
        "                       [--format {text,json}] [--out OUT] [--m M]\n"
        "                       [--k-max K_MAX]\n",
    "selftest":
        "usage: redeiperm selftest [-h] [--format {text,json}] [--out OUT]\n"
        "                          [--level {quick,full}] [--seed SEED]\n",
}


def test_each_subcommand_keeps_its_usage_line(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli._build_parser()
    assert parser.format_usage() == (
        "usage: redeiperm [-h] {construct,invert,count,selftest} ...\n")
    subparsers = next(a for a in parser._actions
                      if a.dest == "command").choices
    assert {name: sp.format_usage() for name, sp in subparsers.items()} == USAGE


ROUTE_CHOICES = "'cyclotomic', 'closed', 'table', 'all'"


@pytest.mark.parametrize("argv,message", [
    (["construct", "--p", "11", "--n", "3"],
     USAGE["construct"] + "redeiperm construct: error: the following arguments "
                          "are required: --variant\n"),
    (["invert", "--p", "9", "--variant", "H", "--n", "3", "--route", "bogus"],
     USAGE["invert"] + "redeiperm invert: error: argument --route: invalid "
                       f"choice: 'bogus' (choose from {ROUTE_CHOICES})\n"),
    (["selftest", "--size-bound", "50"],
     "usage: redeiperm [-h] {construct,invert,count,selftest} ...\n"
     "redeiperm: error: unrecognized arguments: --size-bound 50\n"),
], ids=["missing-variant", "bad-route", "selftest-size-bound"])
def test_argparse_errors_keep_their_bytes(monkeypatch, capsys, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    # later argparse releases list the choices by str() instead of repr()
    assert captured.err in (message, message.replace(ROUTE_CHOICES,
                                                     ROUTE_CHOICES.replace("'", "")))


CORPUS = cli_corpus.load()["entries"]


@pytest.mark.parametrize("index", range(0, len(CORPUS), 8))
def test_the_cli_corpus_replays_byte_identical(index):
    """Every eighth argv of tests/data/v1/cli_corpus.json keeps its exit
    code and the sha256 of its stdout and stderr; CI replays them all."""
    assert cli_corpus.run(CORPUS[index]["argv"]) == CORPUS[index]


_JUNK = st.sampled_from(["", "x", "1.5", "1e3", "0x10", "--", " 3", "nan"])
_BIG = st.integers(-10**22, 10**22)
# each option's plausible values, bad ones among them; --size-bound stays
# at most 6561, even in its wide draws, so no argv builds a field beyond q = 81
_PLAUSIBLE = {
    "--p": st.one_of(st.sampled_from(["3", "5", "7", "11", "13"]),
                     st.sampled_from(["2", "1", "0", "-3", "4", "9", "15", "25"])),
    "--k": st.integers(-1, 4), "--n": st.integers(-3, 12),
    "--m": st.integers(-3, 3), "--l": st.integers(-2, 12),
    "--k-max": st.integers(-1, 6),
    "--size-bound": st.sampled_from([6561, 2401, 625, 81, 48, 0, -1]),
    "--variant": st.sampled_from(["H", "G", "h"]),
    "--route": st.sampled_from([*ROUTES, "all", "bogus"]),
    "--format": st.sampled_from(["text", "json", "xml"]),
    "--out": st.sampled_from(["-", os.devnull, os.devnull + "/x"]),
}
_INTEGERS = ("--p", "--k", "--n", "--m", "--l", "--k-max", "--size-bound")
_KINDS = st.sampled_from(["plausible"] * 13 + ["missing", "junk", "big"])
_REQUIRED = {"construct": ["--p", "--variant", "--n"],
             "invert": ["--p", "--variant", "--n"], "count": ["--p"]}
_OPTIONAL = {
    "construct": ["--k", "--m", "--l", "--format", "--out", "--skip-oracle"],
    "invert": ["--k", "--m", "--l", "--format", "--out", "--route"],
    "count": ["--k", "--m", "--k-max", "--format", "--out"],
}


@st.composite
def _argv(draw):
    """A construct, invert or count argv: --size-bound, the required options
    and some optional ones, in any order.  Each value is plausible or, one
    time in sixteen, missing; an integer option's value is, one time in
    sixteen each, not an integer or an integer up to 10^22 in size."""
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    names = ["--size-bound", *_REQUIRED[command],
             *draw(st.lists(st.sampled_from(_OPTIONAL[command]), max_size=4))]
    argv = [command]
    for name in draw(st.permutations(names)):
        kind = "flag" if name == "--skip-oracle" else draw(_KINDS)
        if kind in ("flag", "missing"):
            argv.append(name)
            continue
        if name in _INTEGERS:
            value = draw({"junk": _JUNK, "big": _BIG}.get(kind, _PLAUSIBLE[name]))
        else:  # a choice, or an --out path that is never a file here
            value = draw(_PLAUSIBLE[name])
        if name == "--size-bound" and kind == "big":
            value = min(value, 6561)
        argv += [name, str(value)]
    return argv


# 1400 draws: about 5 s on one x86-64 core (Python 3.11)
@settings(max_examples=1400)
@given(_argv())
def test_no_argv_makes_main_raise(argv):
    """cli.main returns an exit code 0-3 for any argv, or argparse exits
    with 2; nothing else escapes."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
