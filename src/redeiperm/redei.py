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

Two independent paths are kept for each form and checked against each other.
Coefficients come from the recursion and from the binomial closed form with
binomials reduced mod p by Lucas' theorem, both on packed coefficient lists;
the binomial route sees characteristic-p coefficient vanishing directly, the
recursion does not, so agreement is a real check and any mismatch raises.

Point values come from two routes.  Whole tables (gh_table: the coset table
of construct and the mu-inverse table of inverse) use the definition itself,
G_n = (u + v)/2 and H_n = (u - v)/(2s) with u, v = (x +- s)^n: three Zech
steps and two multiples of a log per point.  Squaring-and-multiplying the
pair G + H*S in F_{q^2}[S]/(S^2 - alpha), O(log n) products per point with
no square root of alpha and no logs of x +- s, stays the independent
reference (the pair is the first column of the n-th power of the matrix
[[x, alpha], [1, x]]): gh_table recomputes a constant number of its entries
that way, and gh_eval (hence the selftest's check of (x + s)^n = G_n + H_n*s)
and inverse.mu_inverse_eval, the per-point power form of the coset inverse,
use it alone, the latter because its cross-check partner, the rational
form, already expands (w +- 1)^n'.

Dickson polynomials of the first kind D_n(x, a) are evaluated alongside
(D_0 = 2, D_1 = x, D_n = x*D_{n-1} - a*D_{n-2}); they tie to the pair via
G_n(x, alpha) = D_n(2x, x^2 - alpha) / 2 and, for odd n,
H_n(x, alpha) = D_n(2s, alpha - x^2) / (2s).
"""

from __future__ import annotations

import math
from itertools import zip_longest
from typing import NamedTuple

from .field_tower import Felt, FieldCtx, require_field, spot_positions
from .polyring import Poly

GH_DEGREE_CAP = 10 ** 4


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for prime p by Lucas' theorem: the product of C(n_i, k_i)
    over the base-p digits n_i, k_i, each from math.comb (0 when k_i > n_i)."""
    if k < 0 or k > n:
        return 0
    result = 1
    while k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        result = result * math.comb(nd, kd) % p
    return result


class RedeiPair(NamedTuple):
    """Coefficient form of (G_n, H_n) for a given n and alpha in mu_{q+1}."""
    n: int
    alpha: Felt
    g: Poly
    h: Poly


def _require_alpha(alpha: Felt) -> None:
    if not alpha.in_mu(alpha.ctx.q + 1):
        raise ValueError("alpha must lie in mu_{q+1}")


def _gh_coeffs_recursive(n: int, alpha: Felt) -> tuple[list[int], list[int]]:
    """Packed coefficients of G_n at x^(n-2i) and of H_n at x^(n-1-2i),
    i = 0, 1, ..., by iterating G' = x*G + alpha*H, H' = G + x*H.

    G_n and H_n only have exponents of the parity of n resp. n-1, so
    multiplying by x keeps a list's index: x*G lands on G' at index i and
    alpha*H at index i+1, while G and x*H both land on H' at index i.  The
    lists hold discrete logs while iterating, with q^2-1 standing for 0, so
    a product is one addition and a sum one Zech step (FieldCtx.add_logs).
    """
    ctx = alpha.ctx
    exp, plus, N = ctx._exp, ctx.add_logs, ctx.units
    la = ctx._log[alpha.val]
    g: list[int] = [0]
    h: list[int] = []
    for _ in range(n):
        ah = [N]
        ah += [N if v == N else (v + la) % N for v in h]
        g, h = (plus(zip_longest(g, ah, fillvalue=N)),
                plus(zip_longest(g, h, fillvalue=N)))
    return ([0 if v == N else exp[v] for v in g],
            [0 if v == N else exp[v] for v in h])


def _gh_coeffs_binomial(n: int, alpha: Felt) -> tuple[list[int], list[int]]:
    """The lists of _gh_coeffs_recursive from C(n, 2i) alpha^i and
    C(n, 2i+1) alpha^i, the binomials reduced mod p by Lucas' theorem (a
    residue mod p is its own packed value)."""
    ctx = alpha.ctx
    p, mul, av = ctx.p, ctx.mul_packed, alpha.val
    g: list[int] = []
    h: list[int] = []
    apow = 1
    for i in range(n // 2 + 1):
        g.append(mul(binom_mod(n, 2 * i, p), apow))
        if 2 * i + 1 <= n:
            h.append(mul(binom_mod(n, 2 * i + 1, p), apow))
        apow = mul(apow, av)
    return g, h


def _parity_poly(ctx: FieldCtx, top: int, coeffs: list[int]) -> Poly:
    """sum coeffs[i] * x^(top - 2i) as a Poly."""
    return Poly(ctx, {top - 2 * i: Felt(ctx, c) for i, c in enumerate(coeffs) if c})


def gh_coeffs(n: int, alpha: Felt) -> RedeiPair:
    """Coefficient polynomials (G_n, H_n); recursion and closed form agree.

    alpha must lie in mu_{q+1}; n is capped at GH_DEGREE_CAP to keep the
    quadratic-time recursion affordable.  Both paths run on packed
    coefficient lists and the Polys are built once, from the agreed lists.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > GH_DEGREE_CAP:
        raise ValueError(
            f"n={n} exceeds the coefficient-form cap {GH_DEGREE_CAP}")
    _require_alpha(alpha)
    g, h = _gh_coeffs_recursive(n, alpha)
    if (g, h) != _gh_coeffs_binomial(n, alpha):
        raise ArithmeticError(
            "recursion and binomial closed form disagree; the arithmetic "
            "kernel is corrupted")
    ctx = alpha.ctx
    return RedeiPair(n=n, alpha=alpha, g=_parity_poly(ctx, n, g),
                     h=_parity_poly(ctx, n - 1, h))


def _gh_eval_packed(ctx: FieldCtx, n: int, av: int, xv: int) -> tuple[int, int]:
    """(G_n(x), H_n(x)) on packed values: (x + S)^n = G_n + H_n*S in
    F_{q^2}[S]/(S^2 - alpha), by square-and-multiply on the pair (G, H) with
    (a + b*S)(c + d*S) = (ac + alpha*bd) + (ad + bc)*S.  The pair is the
    first column of the n-th power of the matrix [[x, alpha], [1, x]]."""
    add, mul = ctx.add_packed, ctx.mul_packed
    g, h = 1, 0
    for bit in bin(n)[2:]:  # high bit first: square, then times x + S on a 1
        gh = mul(g, h)
        g, h = add(mul(g, g), mul(av, mul(h, h))), add(gh, gh)
        if bit == "1":
            g, h = add(mul(g, xv), mul(av, h)), add(g, mul(h, xv))
    return g, h


def _gh_closed_packed(ctx: FieldCtx, n: int, av: int, pick: int,
                      points: list[int]) -> list[int]:
    """G_n (pick 0) or H_n (pick 1) at the packed points, by the closed form.

    With s = gamma^(log alpha / 2), u = (x + s)^n and v = (x - s)^n,
    G_n = (u + v)/2 and H_n = (u - v)/(2s).  All of it runs on logs: x +- s
    is one Zech step from log x (the rule of FieldCtx.add_logs, written out:
    a call per step costs more), the n-th powers are multiples of logs,
    u +- v is one more Zech step and the scale an added constant.  At
    x = +-s one of u, v is 0, and n = 0 gives (1, 0) everywhere (0^0 = 1).
    alpha must lie in mu_{q+1}, whose logs are even.
    """
    if n == 0:
        return [1 - pick] * len(points)
    exp, log, N, p = ctx._exp, ctx._log, ctx.units, ctx.p
    top, half = p - 1, N // 2  # gamma^half = -1 = p - 1 = top
    ls = log[av] // 2  # log s
    t = pick * half  # u + v for G, u - v for H
    c = -(log[2] + pick * ls) % N  # log of 1/2 resp. 1/(2s)
    out = []
    for xv in points:
        if xv:  # x +- s = x * (1 + w) for w = +-s/x
            lx = log[xv]
            w = exp[ls - lx]
            lu = N if w == top else (lx + log[w + 1 if w % p < top else w - top]) * n % N
            w = exp[ls + half - lx]
            lv = N if w == top else (lx + log[w + 1 if w % p < top else w - top]) * n % N
        else:
            lu, lv = ls * n % N, (ls + half) * n % N
        if lu == N:
            out.append(exp[(lv + t + c) % N])
        elif lv == N:
            out.append(exp[(lu + c) % N])
        else:
            w = exp[(lv + t - lu) % N]
            out.append(0 if w == top else
                       exp[(lu + log[w + 1 if w % p < top else w - top] + c) % N])
    return out


def gh_table(ctx: FieldCtx, n: int, av: int, pick: int,
             points: list[int]) -> list[int]:
    """G_n (pick 0) or H_n (pick 1) at a list of packed points.

    The values come from the closed form (_gh_closed_packed), O(1) per
    point.  SPOT_CHECKS of them, spread evenly over the list, are
    recomputed by powering the pair (_gh_eval_packed); a mismatch raises
    ArithmeticError.
    """
    values = _gh_closed_packed(ctx, n, av, pick, points)
    size = len(points)
    if len(values) != size:
        raise ArithmeticError("closed-form G_n/H_n table has the wrong length")
    for i in spot_positions(size):
        if values[i] != _gh_eval_packed(ctx, n, av, points[i])[pick]:
            raise ArithmeticError(
                f"closed-form {'GH'[pick]}_{n} disagrees with matrix powering "
                f"at the packed point {points[i]}")
    return values


def gh_eval(n: int, alpha: Felt, x: Felt) -> tuple[Felt, Felt]:
    """Point values (G_n(x), H_n(x)) in O(log n) field multiplications."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _require_alpha(alpha)
    ctx = alpha.ctx
    require_field(ctx, x)
    gv, hv = _gh_eval_packed(ctx, n, alpha.val, x.val)
    return Felt(ctx, gv), Felt(ctx, hv)


def dickson_eval(n: int, a: Felt, x: Felt) -> Felt:
    """D_n(x, a) by iterating the recurrence on packed values."""
    if n < 0:
        raise ValueError("n must be non-negative")
    ctx = a.ctx
    require_field(ctx, x)
    if n == 0:
        return ctx.scalar(2)
    add, mul, neg = ctx.add_packed, ctx.mul_packed, ctx.neg_packed
    av, xv = a.val, x.val
    prev, cur = 2 % ctx.p, xv
    for _ in range(n - 1):
        prev, cur = cur, add(mul(xv, cur), neg(mul(av, prev)))
    return Felt(ctx, cur)
