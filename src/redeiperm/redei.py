"""The polynomial pair (G_n, H_n) behind Redei functions, and Dickson polynomials.

For alpha in mu_{q+1} the pair is defined by the expansion
(x + s)^n = G_n(x, alpha) + H_n(x, alpha) * s with s a square root of alpha:
G_n collects the even powers of s, H_n the odd ones.  Equivalently,

    G_0 = 1, H_0 = 0,
    G_n = x*G_{n-1} + alpha*H_{n-1},
    H_n = G_{n-1} + x*H_{n-1},

and the closed forms are G_n = sum C(n,2i) alpha^i x^(n-2i) and
H_n = sum C(n,2i+1) alpha^i x^(n-2i-1).  The Redei function is the rational
map G_n/H_n.

Both computation paths are kept permanently and checked against each other:
coefficients come from the recursion and from the binomial closed form with
binomials reduced mod p by Lucas' theorem, and point values come from
squaring-and-multiplying the 2x2 matrix [[x, alpha], [1, x]].  The binomial
route sees characteristic-p coefficient vanishing directly, the recursion
does not, so agreement is a real check and any mismatch raises.

Dickson polynomials of the first kind D_n(x, a) are provided alongside
(D_0 = 2, D_1 = x, D_n = x*D_{n-1} - a*D_{n-2}) together with their closed
form; they tie to the pair via G_n(x, alpha) = D_n(2x, x^2 - alpha) / 2 and,
for odd n, H_n(x, alpha) = D_n(2s, alpha - x^2) / (2s).
"""

from __future__ import annotations

from dataclasses import dataclass

from .field_tower import Felt, FieldCtx
from .polyring import Poly, poly_eval

GH_DEGREE_CAP = 10 ** 4


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for prime p, via Lucas' theorem on base-p digits."""
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        num = 1
        den = 1
        for i in range(kd):
            num = (num * (nd - i)) % p
            den = (den * (i + 1)) % p
        result = (result * num * pow(den, p - 2, p)) % p
    return result


@dataclass(frozen=True)
class RedeiPair:
    """Coefficient form of (G_n, H_n) for a given n and alpha in mu_{q+1}."""
    n: int
    alpha: Felt
    g: Poly
    h: Poly


def _require_alpha(alpha: Felt) -> None:
    if not alpha.in_mu(alpha.ctx.q + 1):
        raise ValueError("alpha must lie in mu_{q+1}")


def _gh_coeffs_recursive(n: int, alpha: Felt) -> tuple[Poly, Poly]:
    ctx = alpha.ctx
    g, h = Poly.one(ctx), Poly.zero(ctx)
    for _ in range(n):
        g, h = g.shift(1) + h * alpha, g + h.shift(1)
    return g, h


def _gh_coeffs_binomial(n: int, alpha: Felt) -> tuple[Poly, Poly]:
    ctx = alpha.ctx
    p = ctx.p
    g_terms = []
    h_terms = []
    apow = ctx.one()
    for i in range(n // 2 + 1):
        cg = binom_mod(n, 2 * i, p)
        if cg:
            g_terms.append((n - 2 * i, apow * cg))
        ch = binom_mod(n, 2 * i + 1, p)
        if ch and 2 * i + 1 <= n:
            h_terms.append((n - 2 * i - 1, apow * ch))
        apow = apow * alpha
    return Poly.from_terms(ctx, g_terms), Poly.from_terms(ctx, h_terms)


def gh_coeffs(n: int, alpha: Felt, cap: int = GH_DEGREE_CAP) -> RedeiPair:
    """Coefficient polynomials (G_n, H_n); recursion and closed form agree.

    alpha must lie in mu_{q+1}; n is capped to keep the quadratic-time
    recursion affordable.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise ValueError(f"n={n} exceeds the coefficient-form cap {cap}")
    _require_alpha(alpha)
    g, h = _gh_coeffs_recursive(n, alpha)
    g2, h2 = _gh_coeffs_binomial(n, alpha)
    if g != g2 or h != h2:
        raise ArithmeticError(
            "recursion and binomial closed form disagree; the arithmetic "
            "kernel is corrupted")
    return RedeiPair(n=n, alpha=alpha, g=g, h=h)


def _gh_eval_packed(ctx: FieldCtx, n: int, av: int, xv: int) -> tuple[int, int]:
    """(G_n(x), H_n(x)) on packed values via 2x2 matrix powering."""
    add, mul = ctx.add_packed, ctx.mul_packed
    # result vector starts at (G_0, H_0) = (1, 0); matrix is [[x, a], [1, x]]
    ra, rb, rc, rd = 1, 0, 0, 1
    ma, mb, mc, md = xv, av, 1, xv
    e = n
    while e:
        if e & 1:
            ra, rb, rc, rd = (
                add(mul(ma, ra), mul(mb, rc)),
                add(mul(ma, rb), mul(mb, rd)),
                add(mul(mc, ra), mul(md, rc)),
                add(mul(mc, rb), mul(md, rd)),
            )
        e >>= 1
        if e:
            ma, mb, mc, md = (
                add(mul(ma, ma), mul(mb, mc)),
                add(mul(ma, mb), mul(mb, md)),
                add(mul(mc, ma), mul(md, mc)),
                add(mul(mc, mb), mul(md, md)),
            )
    return ra, rc


def gh_eval(n: int, alpha: Felt, x: Felt) -> tuple[Felt, Felt]:
    """Point values (G_n(x), H_n(x)) in O(log n) field multiplications."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _require_alpha(alpha)
    ctx = alpha.ctx
    gv, hv = _gh_eval_packed(ctx, n, alpha.val, x.val)
    return Felt(ctx, gv), Felt(ctx, hv)


def redei_eval(n: int, alpha: Felt, x: Felt) -> Felt | None:
    """The Redei function G_n(x)/H_n(x); None at poles (H_n(x) = 0)."""
    g, h = gh_eval(n, alpha, x)
    if h.val == 0:
        return None
    return g / h


def _dickson_coeff_int(n: int, i: int) -> int:
    """The integer n/(n-i) * C(n-i, i) from the Dickson closed form."""
    from math import comb
    num = n * comb(n - i, i)
    if num % (n - i):
        raise ArithmeticError("Dickson closed-form coefficient not integral")
    return num // (n - i)


def dickson_coeffs(n: int, a: Felt, cap: int = GH_DEGREE_CAP) -> Poly:
    """Coefficient form of D_n(x, a); recurrence checked against closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise ValueError(f"n={n} exceeds the coefficient-form cap {cap}")
    ctx = a.ctx
    if n == 0:
        return Poly.from_terms(ctx, [(0, 2)])
    d_prev = Poly.from_terms(ctx, [(0, 2)])
    d_cur = Poly.x(ctx)
    for _ in range(n - 1):
        d_prev, d_cur = d_cur, d_cur.shift(1) - d_prev * a
    closed_terms = []
    neg_a_pow = ctx.one()
    for i in range(n // 2 + 1):
        c = _dickson_coeff_int(n, i) % ctx.p
        if c:
            closed_terms.append((n - 2 * i, neg_a_pow * c))
        neg_a_pow = neg_a_pow * (-a)
    closed = Poly.from_terms(ctx, closed_terms)
    if d_cur != closed:
        raise ArithmeticError(
            "Dickson recurrence and closed form disagree; the arithmetic "
            "kernel is corrupted")
    return d_cur


def dickson_eval(n: int, a: Felt, x: Felt) -> Felt:
    """D_n(x, a) by iterating the recurrence on packed values."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ctx = a.ctx
    if n == 0:
        return ctx.scalar(2)
    add, mul, neg = ctx.add_packed, ctx.mul_packed, ctx.neg_packed
    av, xv = a.val, x.val
    prev, cur = 2 % ctx.p, xv
    for _ in range(n - 1):
        prev, cur = cur, add(mul(xv, cur), neg(mul(av, prev)))
    return Felt(ctx, cur)


def gh_from_poly(pair: RedeiPair, x: Felt) -> tuple[Felt, Felt]:
    """Evaluate the coefficient form of a pair at a point."""
    return poly_eval(pair.g, x), poly_eval(pair.h, x)
