"""Corruption tests for internal cross-checks that no other test reaches.

Each test corrupts the input of one ArithmeticError check by monkeypatching
the function that feeds it, and pins the check's message, both from the
library call and from the CLI, where the failure is exit 3 with nothing on
stdout.  Where the check's absence would change the kind of failure, not
only its message, the test's docstring says so.
"""

import math
import re

import pytest

from redeiperm import CosetMap, PermSpec, cli, field_tower, inverse, redei
from redeiperm.construct import coset_factor_table, sqrt_case

Q9_H3 = ["--p", "3", "--k", "2", "--variant", "H", "--n", "3", "--l", "2"]


def _spec(ctx):
    return PermSpec("H", 3, 0, ctx.alpha_from_l(2))


def _exits_3(capsys, argv, message):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (3, "", f"error: {message}\n")


def test_an_alpha_without_a_square_root_fails_sqrt_case(monkeypatch, capsys, q9):
    """Without the check, sqrt_case indexes the empty tuple of roots: an
    IndexError, which the CLI does not catch, in place of exit 3."""
    monkeypatch.setattr(field_tower.FieldCtx, "sqrt", lambda self, a: ())
    message = "element of mu_{q+1} without a square root"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        sqrt_case(q9.alpha_from_l(2))
    _exits_3(capsys, ["construct", *Q9_H3], message)


@pytest.mark.parametrize("modulus,message", [
    (lambda q: q - 1, "r_prime/t do not satisfy the Bezout identity"),
    (lambda q: 2 * (q - 1), "n1 is not the inverse of n mod 2(q-1)"),
    (lambda q: 2 * (q + 1), "n2 is not the inverse of n mod 2(q+1)"),
    (lambda q: q * q - 1, "r_prime_full is not the inverse of r mod q^2-1"),
], ids=["r-prime-t", "n1", "n2", "r-prime-full"])
def test_a_wrong_modular_inverse_fails_the_bezout_check(monkeypatch, capsys, q9,
                                                         modulus, message):
    """One of bezout's four inverses made off by one (n = r = 3 at q = 9:
    the four moduli 8, 16, 20 and 80 differ, and all four inverses exist).
    Without the check, invert --route closed exits 0 for a wrong r_prime or
    n2 (this spec's closed route reads neither), 3 at the lift's check
    against CosetMap.inverse for a wrong r_prime_full and 3 at the
    power/rational form check for a wrong n1."""
    real, target = inverse._modinv_or_none, modulus(q9.q)
    monkeypatch.setattr(inverse, "_modinv_or_none", lambda a, mod: (
        real(a, mod) + 1 if mod == target else real(a, mod)))
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        inverse.bezout(_spec(q9))
    _exits_3(capsys, ["invert", *Q9_H3, "--route", "closed"], message)


def test_a_mu_inverse_entry_off_mu_fails_the_table_check(monkeypatch, capsys, q9):
    """Entry 1 of the mu-inverse table (not a spot position) made gamma,
    whose log 1 is no multiple of q - 1.  Without the check the inversion
    check reports it, with another message."""
    real = inverse._mu_inverse_values
    monkeypatch.setattr(inverse, "_mu_inverse_values", lambda inv: [
        inv.ctx.gamma.val if j == 1 else v for j, v in enumerate(real(inv))])
    message = "mu-inverse table leaves mu_{q+1}"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        inverse.lift_inverse(_spec(q9))
    _exits_3(capsys, ["invert", *Q9_H3, "--route", "closed"], message)


def _vanishing(perm):
    """perm with a zero at F(zeta^0) in its coset factor table."""
    return CosetMap(perm.ctx, perm.e, [0, *perm.table[1:]])


AGW = ("the gcd criterion certifies a map that does not permute F_{q^2} "
       "(Akbary-Ghioca-Wang)")


def test_a_vanishing_coset_factor_fails_the_table_check(monkeypatch, capsys, q9):
    """A zero at F(zeta^0) in P's coset factor table, where the library
    (inverse) and invert (cli) build P's map: the route's certification
    finds no CosetMap.inverse.  Without CosetMap.inverse's zero test, it
    adds the None log of that entry to an int and raises TypeError, which
    the CLI does not catch, in place of exit 3."""
    real = inverse.perm_coset_map
    for module in (inverse, cli):
        monkeypatch.setattr(module, "perm_coset_map",
                            lambda spec: _vanishing(real(spec)))
    with pytest.raises(ArithmeticError, match=re.escape(AGW)):
        inverse.lift_inverse(_spec(q9))
    for route in ("closed", "cyclotomic"):
        _exits_3(capsys, ["invert", *Q9_H3, "--route", route], AGW)


@pytest.mark.parametrize("route", ["lift_inverse", "inverse_cyclotomic"])
def test_a_vanishing_coset_factor_passed_as_perm_fails_the_route(q9, route):
    """A corrupted map passed as perm is the map the route certifies: it is
    refused, not rebuilt from spec."""
    spec = _spec(q9)
    perm = _vanishing(inverse.perm_coset_map(spec))
    with pytest.raises(ArithmeticError, match=re.escape(AGW)):
        getattr(inverse, route)(spec, perm)


def test_a_lift_from_another_unit_fails_the_inverse_check(monkeypatch, capsys,
                                                          q9):
    """bezout made to return another unit mod q^2-1 as r_prime_full, past
    its own check: the lift's exponents e1 and e2 change, and the lift no
    longer equals CosetMap.inverse of P at the coset representatives.
    Without the check, invert --route closed prints the wrong map's
    failed composition and exits 1, in place of exit 3."""
    real = inverse.bezout

    def other_unit(spec):
        b = real(spec)
        other = next(u for u in range(b.r_prime_full + 1, 2 * spec.ctx.units)
                     if math.gcd(u, spec.ctx.units) == 1)
        return b._replace(r_prime_full=other % spec.ctx.units)

    monkeypatch.setattr(inverse, "bezout", other_unit)
    message = "closed-form lift disagrees with P's coset inverse"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        inverse.lift_inverse(_spec(q9))
    _exits_3(capsys, ["invert", *Q9_H3, "--route", "closed"], message)


def test_a_short_closed_form_table_fails_gh_table(monkeypatch, capsys, q9):
    """The closed form made to drop its last value.  Without the check, the
    q-entry coset table reaches CosetMap, which refuses it with ValueError:
    exit 2, as for rejected input, in place of exit 3."""
    real = redei._gh_closed_packed
    monkeypatch.setattr(redei, "_gh_closed_packed", lambda *a: real(*a)[:-1])
    message = "closed-form G_n/H_n table has the wrong length"
    with pytest.raises(ArithmeticError, match=re.escape(message)):
        coset_factor_table(_spec(q9))
    _exits_3(capsys, ["construct", *Q9_H3], message)
