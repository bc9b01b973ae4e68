"""The coefficient pair (G_n, H_n), its Dickson ties, and the mu_{q+1} identities.

The defining property is (x + s)^n = G_n(x, alpha) + H_n(x, alpha) * s for
any square root s of alpha; tests below expand the left side independently
in the polynomial ring and per point, so the recursion, the binomial closed
form and the pair-power evaluator are each checked against something they
do not share code with.
"""

import math
import random

import pytest

from redeiperm import (Poly, binom_mod, dickson_eval, gh_coeffs, gh_eval,
                       make_field, poly_eval, poly_gcd)


def _mul(f, g):
    """The ring product of two Polys, term by term."""
    return Poly.from_terms(f.ctx, [(e1 + e2, c1 * c2)
                                   for e1, c1 in f.terms.items()
                                   for e2, c2 in g.terms.items()])


def test_low_order_coefficient_polys(q7):
    one = q7.one()
    alpha = q7.alpha_from_l(1)
    pair = gh_coeffs(0, alpha)
    assert pair.g == Poly.one(q7) and pair.h == Poly(q7, {})
    pair = gh_coeffs(1, alpha)
    assert pair.g == Poly.from_terms(q7, [(1, 1)])
    assert pair.h == Poly.one(q7)
    pair = gh_coeffs(3, alpha)
    assert pair.g == Poly.from_terms(q7, [(3, one), (1, 3 * alpha)])
    assert pair.h == Poly.from_terms(q7, [(2, q7.scalar(3)), (0, alpha)])
    pair = gh_coeffs(5, alpha)
    assert pair.g == Poly.from_terms(
        q7, [(5, one), (3, 10 * alpha), (1, 5 * alpha * alpha)])
    assert pair.h == Poly.from_terms(
        q7, [(4, q7.scalar(5)), (2, 10 * alpha), (0, alpha * alpha)])


@pytest.mark.parametrize("qname", ["q3", "q5", "q7", "q9"])
def test_defining_expansion_in_poly_ring(qname, request):
    """(x + s)^n computed by repeated ring multiplication equals G + s*H."""
    ctx = request.getfixturevalue(qname)
    for l in range(ctx.q + 1):
        alpha = ctx.alpha_from_l(l)
        for s in ctx.sqrt(alpha):
            base = Poly.from_terms(ctx, [(1, 1), (0, s)])
            for n in (0, 1, 2, 3, 7, 12):
                power = Poly.one(ctx)
                for _ in range(n):
                    power = _mul(power, base)
                pair = gh_coeffs(n, alpha)
                g_plus_hs = Poly.from_terms(ctx, [
                    *pair.g.terms.items(),
                    *((e, c * s) for e, c in pair.h.terms.items())])
                assert power == g_plus_hs, (l, n)


def test_defining_expansion_pointwise(q9):
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 51)
        alpha = q9.alpha_from_l(rng.randrange(q9.q + 1))
        x = q9.from_packed(rng.randrange(q9.q2))
        g, h = gh_eval(n, alpha, x)
        for s in q9.sqrt(alpha):
            assert (x + s) ** n == g + h * s
            assert (x - s) ** n == g - h * s


def test_eval_routes_agree(q9):
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(0, 40)
        alpha = q9.alpha_from_l(rng.randrange(q9.q + 1))
        x = q9.from_packed(rng.randrange(q9.q2))
        pair = gh_coeffs(n, alpha)
        assert gh_eval(n, alpha, x) == (poly_eval(pair.g, x), poly_eval(pair.h, x))


def test_gh_rejects_alpha_outside_mu(q9):
    with pytest.raises(ValueError):
        gh_coeffs(3, q9.gamma)
    with pytest.raises(ValueError):
        gh_eval(3, q9.gamma, q9.one())


def test_point_evaluators_refuse_a_point_of_another_field(q9, q25):
    for ctx, other in ((q9, q25), (q25, q9)):
        x = other.from_packed(7)
        for n in (0, 3):
            with pytest.raises(ValueError, match="^elements from different fields$"):
                gh_eval(n, ctx.alpha_from_l(2), x)
            with pytest.raises(ValueError, match="^elements from different fields$"):
                dickson_eval(n, ctx.from_packed(2), x)


def test_a_negative_n_is_refused(q9):
    alpha, x = q9.alpha_from_l(2), q9.from_packed(7)
    for call in (lambda: gh_coeffs(-1, alpha), lambda: gh_eval(-1, alpha, x),
                 lambda: dickson_eval(-1, alpha, x)):
        with pytest.raises(ValueError, match="^n must be non-negative$"):
            call()


def test_gh_degree_cap():
    ctx = make_field(3, 1)
    with pytest.raises(ValueError):
        gh_coeffs(10 ** 5, ctx.one())


def test_frozen_point_values(q7):
    one = q7.one()
    g, h = gh_eval(3, one, q7.scalar(2))
    assert g == 0 and h == q7.scalar(13)  # 3*4 + 1 = 13 = 6 mod 7
    g, h = gh_eval(3, one, one)
    assert g == h == q7.scalar(4)  # the Redei function G_3/H_3 is 1 at x = 1
    # H_3(x, 1) = 3x^2 + 1 vanishes at x = 3 over F_7: a pole of G_3/H_3
    assert gh_eval(3, one, q7.scalar(3))[1] == 0


def test_degrees_and_term_counts(q11):
    alpha = q11.alpha_from_l(2)
    for n in range(1, 13):
        pair = gh_coeffs(n, alpha)
        assert pair.g.degree() == n  # leading coefficient C(n,0) = 1
        if n % 11:
            assert pair.h.degree() == n - 1  # leading coefficient C(n,1) = n
        else:
            # at n = p the expansion collapses: (x+s)^p = x^p + s^p
            assert pair.g == Poly.from_terms(q11, [(n, 1)])
            assert pair.h.degree() == 0
        if n % 2 and all(binom_mod(n, 2 * i, 11) for i in range(n // 2 + 1)):
            assert len(pair.g.terms) == (n + 1) // 2
            assert len(pair.h.terms) == (n + 1) // 2


def test_coefficient_coprimality(q3, q5, q7, q9):
    for ctx in (q3, q5, q7, q9):
        one = Poly.one(ctx)
        for l in range(ctx.q + 1):
            alpha = ctx.alpha_from_l(l)
            for n in range(1, 16):
                pair = gh_coeffs(n, alpha)
                assert poly_gcd(pair.g, pair.h) == one, (ctx.q, l, n)


def test_binom_mod_matches_math_comb():
    for p in (3, 5, 7, 11):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert binom_mod(n, k, p) == math.comb(n, k) % p
    assert binom_mod(5, 7, 3) == 0
    assert binom_mod(5, -1, 3) == 0


# ---------------------------------------------------------------------------
# Dickson polynomials.
# ---------------------------------------------------------------------------

def test_dickson_low_orders(q7):
    a = q7.gamma  # any parameter works; structure is generic
    for v in range(q7.q2):
        x = q7.from_packed(v)
        assert dickson_eval(0, a, x) == q7.scalar(2)
        assert dickson_eval(1, a, x) == x
        assert dickson_eval(2, a, x) == x * x - 2 * a
        assert dickson_eval(3, a, x) == x ** 3 - 3 * a * x
        assert dickson_eval(5, a, x) == x ** 5 - 5 * a * x ** 3 + 5 * a * a * x


def test_dickson_functional_equation(q25):
    """D_n(z + a/z, a) = z^n + (a/z)^n, the property that defines D_n."""
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(0, 40)
        a = q25.from_packed(rng.randrange(q25.q2))
        z = q25.from_packed(rng.randrange(1, q25.q2))
        w = a / z
        assert dickson_eval(n, a, z + w) == z ** n + w ** n


def test_dickson_waring_identity(q25):
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randrange(0, 40)
        u = q25.from_packed(rng.randrange(q25.q2))
        v = q25.from_packed(rng.randrange(q25.q2))
        assert u ** n + v ** n == dickson_eval(n, u * v, u + v)


def test_gh_dickson_ties(q5, q7, q9):
    """G_n = D_n(2x, x^2-alpha)/2 always; 2*s*H_n = D_n(2s, alpha-x^2) for odd n."""
    rng = random.Random(17)
    for ctx in (q5, q7, q9):
        two_inv = ctx.scalar(2).inv()
        for _ in range(150):
            n = rng.randrange(0, 45)
            alpha = ctx.alpha_from_l(rng.randrange(ctx.q + 1))
            x = ctx.from_packed(rng.randrange(ctx.q2))
            g, h = gh_eval(n, alpha, x)
            assert g == two_inv * dickson_eval(n, x * x - alpha, 2 * x)
            if n % 2:
                for s in ctx.sqrt(alpha):
                    assert h == (2 * s).inv() * dickson_eval(n, alpha - x * x, 2 * s)


# ---------------------------------------------------------------------------
# Behaviour on mu_{q+1}: the identities that drive the permutation criteria.
# ---------------------------------------------------------------------------

def test_no_roots_on_mu_for_odd_n(q5, q9):
    for ctx in (q5, q9):
        for l in range(ctx.q + 1):
            alpha = ctx.alpha_from_l(l)
            for n in range(1, 12, 2):
                for b in ctx.mu(ctx.q + 1):
                    g, h = gh_eval(n, alpha, b)
                    assert g.val != 0 and h.val != 0


def test_conjugation_swaps_g_and_h_on_mu(q5, q9):
    """H_n(b)^q = b^{-n} alpha^{-(n-1)/2} G_n(b) for b in mu_{q+1}, odd n."""
    for ctx in (q5, q9):
        q = ctx.q
        for l in range(q + 1):
            alpha = ctx.alpha_from_l(l)
            for n in range(1, 12, 2):
                am = alpha ** (-((n - 1) // 2))
                for b in ctx.mu(q + 1):
                    g, h = gh_eval(n, alpha, b)
                    assert h.frobenius_q() == b ** (-n) * am * g
                    # equivalent statement through the quotient map
                    assert b ** n * h ** (q - 1) == am * g / h
