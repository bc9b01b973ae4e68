"""The closed-form G_n/H_n kernel against matrix powering, and its guards.

G_n = (u + v)/2 and H_n = (u - v)/(2s) with u, v = (x +- s)^n and s^2 = alpha
(redei._gh_closed_packed) builds every whole table; powering x + S modulo
S^2 - alpha (redei._gh_eval_packed, the first column of the powers of the
matrix [[x, alpha], [1, x]]) is the independent reference.  The two must agree
for both G and H at every point, including x = +-s (u or v is 0), x = 0 and
n = 0 (0^0 = 1); the coset and lift tables must equal their matrix-built
counterparts on the acceptance grid; and a corrupted kernel or a corrupted
coefficient path must raise instead of returning wrong values.
"""

import pytest
from hypothesis import given, settings, strategies as st

from redeiperm import (PermSpec, check_criterion, coset_factor_table,
                       gh_coeffs, lift_inverse, make_field, redei)
from redeiperm.inverse import bezout, mu_inverse, mu_inverse_eval

from test_coset_eval import SMALL_FIELDS

N_MAX = 64
# exhaustive over every alpha, n and point; Hypothesis samples the rest
EXHAUSTIVE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2)]
# the acceptance suite's grid: tests/test_acceptance.py FIELDS_ALL, n, m
GRID_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2))
GRID_NS = range(1, 13)
GRID_MS = range(-2, 4)


def _assert_kernel_matches_matrix(ctx, l, n, points):
    av = ctx.alpha_from_l(l).val
    want = [redei._gh_eval_packed(ctx, n, av, xv) for xv in points]
    for pick in (0, 1):
        got = redei._gh_closed_packed(ctx, n, av, pick, points)
        assert got == [gh[pick] for gh in want], ("GH"[pick], ctx.q, l, n)


@pytest.mark.parametrize("p,k", EXHAUSTIVE_FIELDS)
def test_kernel_matches_matrix_everywhere(p, k):
    ctx = make_field(p, k)
    points = list(range(ctx.q2))
    for l in range(ctx.q + 1):
        for n in range(N_MAX + 1):
            _assert_kernel_matches_matrix(ctx, l, n, points)


@settings(max_examples=60)
@given(st.sampled_from(SMALL_FIELDS), st.integers(0, 10 ** 6),
       st.integers(0, N_MAX))
def test_kernel_matches_matrix_every_small_field(field, l_draw, n):
    ctx = make_field(*field)
    _assert_kernel_matches_matrix(ctx, l_draw % (ctx.q + 1), n, range(ctx.q2))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_kernel_at_the_roots_and_zero(p, k):
    """x = s and x = -s make v resp. u vanish, x = 0 gives (+-s)^n; every
    alpha, every n in 0..64, also n = 0 where (x -+ s)^0 = 1."""
    ctx = make_field(p, k)
    for l in range(ctx.q + 1):
        alpha = ctx.alpha_from_l(l)
        points = [0] + [s.val for s in ctx.sqrt(alpha)]
        for n in range(N_MAX + 1):
            _assert_kernel_matches_matrix(ctx, l, n, points)


@pytest.mark.parametrize("p,k", GRID_FIELDS)
def test_coset_and_lift_tables_match_the_matrix_route(p, k):
    ctx = make_field(p, k)
    q, N = ctx.q, ctx.units
    zetas = [ctx._exp[(q - 1) * i % N] for i in range(q + 1)]
    lifted = 0
    for variant in ("H", "G"):
        for n in GRID_NS:
            for l in range(q + 1):
                av = ctx.alpha_from_l(l).val
                pick = int(variant == "H")
                spec = PermSpec(variant, n, 0, ctx.alpha_from_l(l))
                assert coset_factor_table(spec) == [
                    redei._gh_eval_packed(ctx, n, av, z)[pick] for z in zetas]
                for m in GRID_MS:
                    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                    try:
                        got = lift_inverse(spec)
                    except ValueError:
                        continue  # not a permutation, or the lift refuses
                    rp = bezout(spec).r_prime_full
                    inv = mu_inverse(spec)
                    want = []
                    for y in ctx.mu(q + 1):
                        iv = mu_inverse_eval(inv, y).val
                        fv = redei._gh_eval_packed(ctx, n, av, iv)[pick]
                        want.append(ctx.mul_packed(
                            ctx.pow_packed(fv, rp * (q - 2) % N), iv))
                    assert got.e == rp * (q * q - q + 1) % N
                    assert got.table == want, (q, variant, n, m, l)
                    lifted += 1
    assert lifted > 0


# ---------------------------------------------------------------------------
# Corruption: a wrong kernel or coefficient path must raise.
# ---------------------------------------------------------------------------

def _flipped_sign(real):
    """G as (u - v)/2 = s*H and H as (u + v)/(2s) = G/s."""
    def kernel(ctx, n, av, pick, points):
        s = ctx._exp[ctx._log[av] // 2]
        other = real(ctx, n, av, 1 - pick, points)
        scale = s if pick == 0 else ctx.inv_packed(s)
        return [ctx.mul_packed(v, scale) for v in other]
    return kernel


def _dropped_scale(real):
    """(u + v) and (u - v) without the 1/2 resp. 1/(2s)."""
    def kernel(ctx, n, av, pick, points):
        s = ctx._exp[ctx._log[av] // 2]
        scale = ctx.mul_packed(2, s if pick else 1)
        return [ctx.mul_packed(v, scale) for v in real(ctx, n, av, pick, points)]
    return kernel


@pytest.mark.parametrize("corrupt", [_flipped_sign, _dropped_scale])
@pytest.mark.parametrize("variant", ["H", "G"])
def test_corrupted_kernel_is_caught(monkeypatch, q11, corrupt, variant):
    spec = PermSpec(variant, 7, 0, q11.alpha_from_l(2))
    assert check_criterion(spec).is_perm
    monkeypatch.setattr(redei, "_gh_closed_packed",
                        corrupt(redei._gh_closed_packed))
    with pytest.raises(ArithmeticError, match="disagrees with matrix powering"):
        coset_factor_table(spec)
    with pytest.raises(ArithmeticError, match="disagrees with matrix powering"):
        lift_inverse(spec)


@pytest.mark.parametrize("path", ["_gh_coeffs_recursive", "_gh_coeffs_binomial"])
@pytest.mark.parametrize("n", [1, 6, 11])
def test_corrupted_coefficient_path_is_caught(monkeypatch, q9, path, n):
    real = getattr(redei, path)

    def corrupted(n, alpha):
        g, h = real(n, alpha)
        g = list(g)
        g[-1] = q9.add_packed(g[-1], 1)
        return g, h

    monkeypatch.setattr(redei, path, corrupted)
    with pytest.raises(ArithmeticError,
                       match="recursion and binomial closed form disagree"):
        gh_coeffs(n, q9.alpha_from_l(1))

