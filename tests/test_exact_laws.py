"""Exact laws behind the paper's counts: the periods of the parameters and
the term counts of G_n, H_n and P.

Periods.  The value table of P on F_{q^2} and the verdict depend on n only
mod q^2-1 (for n >= 1), on m only mod q-1 and on l only mod q+1: x^r with
r = n + m(q+1) depends on r mod q^2-1, (x +- sqrt(alpha))^n on n mod q^2-1
(sqrt(alpha) lies in F_{q^2}), alpha = gamma^(l(q-1)) on l mod q+1, and
every gcd of the criterion on the same residues.

Term counts (Fine, via Lucas).  With n_i the base-p digits of n, the
binomial C(n, j) is nonzero mod p for prod(n_i + 1) values of j, and the
parity of j is the parity of its digit sum, so G_n (even j) has
(prod(n_i + 1) + prod[n_i even]) / 2 nonzero terms and H_n (odd j)
(prod(n_i + 1) - prod[n_i even]) / 2, for every alpha.  For 1 <= n <= q
the reduced P keeps every term of F: the exponents r + (q-1)e collide only
when e = e' mod q+1.
"""

import math

import pytest

from redeiperm import PermSpec, check_criterion, gh_coeffs
from redeiperm.construct import perm_coset_map, perm_factor, perm_poly
from redeiperm.field_tower import field_for_q

FIELDS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27)


def _ls(q: int) -> tuple[int, ...]:
    """Every l up to q = 13, four spread values above."""
    return tuple(range(q + 1)) if q <= 13 else (0, 1, q // 2, q)


def _table_and_verdict(ctx, variant: str, n: int, m: int, l: int):
    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
    cm = perm_coset_map(spec)
    return (cm.eval_packed(0), list(cm.log_rows()),
            check_criterion(spec).to_record())


@pytest.mark.parametrize("q", FIELDS)
def test_value_table_and_verdict_have_the_stated_periods(q):
    ctx = field_for_q(q)
    N = ctx.units
    assert len({ctx.alpha_from_l(l).val for l in range(q + 1)}) == q + 1
    for l in _ls(q):
        assert ctx.alpha_from_l(l + q + 1) == ctx.alpha_from_l(l)
        assert ctx.alpha_from_l(l - 3 * (q + 1)) == ctx.alpha_from_l(l)
        for variant in ("H", "G"):
            for n in range(1, 8):
                for m in (-2, -1, 0, 1, 3):
                    here = _table_and_verdict(ctx, variant, n, m, l)
                    for n2, m2 in ((n + N, m), (n + 2 * N, m),
                                   (n, m + q - 1), (n, m - 2 * (q - 1))):
                        assert _table_and_verdict(ctx, variant, n2, m2, l) == here, (
                            q, variant, n, m, l, n2, m2)


def _digits(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    return out


def _fine_counts(n: int, p: int) -> tuple[int, int]:
    """(terms of G_n, terms of H_n) from the base-p digits of n."""
    digits = _digits(n, p)
    total = math.prod(d + 1 for d in digits)
    even = math.prod(d % 2 == 0 for d in digits)
    return (total + even) // 2, (total - even) // 2


def test_fine_counts_by_hand():
    # 7 = 21_3: C(7, j) mod 3 is nonzero for j in {0, 1, 3, 4, 6, 7}
    assert _fine_counts(7, 3) == (3, 3)
    # 10 = 101_3: j in {0, 1, 9, 10}
    assert _fine_counts(10, 3) == (2, 2)
    # 8 = 22_3: j in {0, 1, 2, 3, 4, 5, 6, 7, 8}, five of them even
    assert _fine_counts(8, 3) == (5, 4)


@pytest.mark.parametrize("q", FIELDS)
def test_term_counts_follow_the_base_p_digits_of_n(q):
    ctx = field_for_q(q)
    for l in (0, 1, q // 2, q):
        alpha = ctx.alpha_from_l(l)
        for n in range(1, max(2 * q + 3, 128)):
            pair = gh_coeffs(n, alpha)
            assert (len(pair.g.terms), len(pair.h.terms)) == _fine_counts(
                n, ctx.p), (q, n, l)


@pytest.mark.parametrize("q", FIELDS)
def test_the_reduced_polynomial_keeps_every_term_for_n_up_to_q(q):
    ctx = field_for_q(q)
    for l in _ls(q):
        alpha = ctx.alpha_from_l(l)
        for variant in ("H", "G"):
            for n in range(1, q + 1):
                for m in (-1, 0, 1):
                    spec = PermSpec(variant, n, m, alpha)
                    f = perm_factor(spec)
                    assert len(perm_poly(spec).terms) == len(f.terms), (
                        q, variant, n, m, l)
