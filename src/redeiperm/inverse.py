"""Compositional inverses of the constructed permutations, by three routes.

Route "cyclotomic": a coefficient polynomial with q+1 terms,

    P^{-1}(x) = 1/(q+1) * sum_{i,j=0..q} zeta^(t*i - r*i*j) (x / A_i)^(r1 + (q-1)j)

reduced mod x^(q^2) - x, where r = n + m(q+1), the integers r1, t solve
r*r1 + (q-1)*t = 1, and A_i is H_n(zeta^i, alpha) for variant H (G_n for
variant G).  The leading scalar is the field identity, because q+1 reduces
to 1 mod p, but it is computed as a genuine inverse anyway.

Route "closed": the permutation restricted to cosets is inverted on
mu_{q+1} by one of four closed forms (I1/I2 for variant H, I3/I4 for
variant G, split on whether a square root of alpha lies in mu_{q+1}),
then lifted to all of F_{q^2} by

    P^{-1}(x) = (x^(q^2-q+1) * F(I(x^(q-1)))^(q-2))^(r') * I(x^(q-1))

with r*r' = 1 mod q^2-1.  The lift needs gcd(r, q^2-1) = 1; in the
root-in-mu case that amounts to the extra hypothesis gcd(n, q+1) = 1,
and the route refuses (with the failing gcd) when it does not hold,
even though the permutation itself is certified.

Route "table": exhaustive inversion of the value table, the ground truth.

Every closed form is evaluated through its total power form; the rational
fraction form is evaluated alongside as a cross-check wherever its
denominator is nonzero, and the two must agree.  All published exponents
that look like half-integer powers of alpha are realised as integer powers
of the chosen square root, and all results are checked independent of
that choice of sign.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .construct import (CASE_IN, CosetMap, PermSpec, build_perm_poly,
                        check_criterion, coset_factor_table, packed_fn, scan,
                        sqrt_case)
from .field_tower import Felt, FieldCtx, check_size_bound
from .polyring import Poly
from .redei import _gh_eval_packed


def _modinv_or_none(a: int, mod: int) -> int | None:
    if math.gcd(a, mod) != 1:
        return None
    return pow(a, -1, mod)


@dataclass(frozen=True)
class BezoutData:
    """Integer inverses required by the inverse formulas, least non-negative.

    r_prime, t: r*r_prime + (q-1)*t = 1 (exists iff gcd(r, q-1) = 1).
    n1: n*n1 = 1 mod 2(q-1).  n2: n*n2 = 1 mod 2(q+1).
    r_prime_full: r*r_prime_full = 1 mod q^2-1.
    A field is None when the corresponding gcd is not 1; that absence is
    itself a certificate (the congruence has no solution).
    """
    r: int
    r_prime: int | None
    t: int | None
    n1: int | None
    n2: int | None
    r_prime_full: int | None

    def to_record(self) -> dict:
        return {
            "r": self.r,
            "r_prime": self.r_prime,
            "t": self.t,
            "n1": self.n1,
            "n2": self.n2,
            "r_prime_full": self.r_prime_full,
        }


def bezout(spec: PermSpec) -> BezoutData:
    """Solve the inverse-formula congruences for a construction request."""
    ctx = spec.ctx
    q = ctx.q
    r, n = spec.r, spec.n
    r_prime = _modinv_or_none(r, q - 1)
    t = None
    if r_prime is not None:
        t, rem = divmod(1 - r * r_prime, q - 1)
        if rem:
            raise ArithmeticError("Bezout identity failed to close")
    n1 = _modinv_or_none(n, 2 * (q - 1))
    n2 = _modinv_or_none(n, 2 * (q + 1))
    r_prime_full = _modinv_or_none(r, ctx.units)
    data = BezoutData(r, r_prime, t, n1, n2, r_prime_full)
    _verify_bezout(data, q, n)
    return data


def _verify_bezout(b: BezoutData, q: int, n: int) -> None:
    if b.r_prime is not None and b.r * b.r_prime + (q - 1) * b.t != 1:
        raise ArithmeticError("r_prime/t do not satisfy the Bezout identity")
    if b.n1 is not None and (n * b.n1) % (2 * (q - 1)) != 1:
        raise ArithmeticError("n1 is not the inverse of n mod 2(q-1)")
    if b.n2 is not None and (n * b.n2) % (2 * (q + 1)) != 1:
        raise ArithmeticError("n2 is not the inverse of n mod 2(q+1)")
    if b.r_prime_full is not None and (b.r * b.r_prime_full) % (q * q - 1) != 1:
        raise ArithmeticError("r_prime_full is not the inverse of r mod q^2-1")


def inverse_cyclotomic(spec: PermSpec, size_bound: int | None = None) -> Poly:
    """The coefficient-form inverse, a (q+1)-term polynomial, reduced.

    Requires the criterion to certify spec as a permutation; the double sum
    has (q+1)^2 terms, so the field must be within the size bound.
    """
    ctx = spec.ctx
    check_size_bound(ctx.q2, size_bound)
    verdict = check_criterion(spec)
    if not verdict.is_perm:
        failed = [c.name for c in verdict.conditions if not c.passed]
        raise ValueError(f"not a permutation; failing conditions: {failed}")
    q, N = ctx.q, ctx.units
    b = bezout(spec)
    if b.r_prime is None:
        raise ArithmeticError("certified permutation with gcd(r, q-1) != 1")
    a_table = coset_factor_table(spec)
    if any(v == 0 for v in a_table):
        raise ArithmeticError("coset factor vanishes on mu_{q+1}")
    inv_q1 = ctx.scalar(q + 1).inv()  # equals one: q+1 = 1 mod p
    exp, log = ctx._exp, ctx._log
    add, mul = ctx.add_packed, ctx.mul_packed
    zl = q - 1  # log of zeta
    r = spec.r
    terms: dict[int, Felt] = {}
    for j in range(q + 1):
        e_j = b.r_prime + (q - 1) * j
        acc = 0
        for i in range(q + 1):
            zpow = exp[zl * ((b.t * i - r * i * j) % (q + 1)) % N]
            apow = exp[(-log[a_table[i]] * e_j) % N]
            acc = add(acc, mul(zpow, apow))
        coeff = inv_q1 * Felt(ctx, acc)
        if coeff.val:
            terms[e_j] = coeff
    return Poly(ctx, terms)


@dataclass(frozen=True)
class MuInverse:
    """The inverse on mu_{q+1} of b -> b^n * F(b, alpha)^(q-1).

    case I1: variant H, root of alpha in mu_{q+1}; exponent n1.
    case I2: variant H, root outside;            exponent n2.
    case I3: variant G, root in mu_{q+1};        exponent n1.
    case I4: variant G, root outside;            exponent n2.
    """
    case: str
    n: int
    n_inv: int
    alpha: Felt
    sqrt_alpha: Felt

    @property
    def ctx(self) -> FieldCtx:
        return self.alpha.ctx


def mu_inverse(spec: PermSpec, sqrt_choice: Felt | None = None) -> MuInverse:
    """Select the applicable closed-form case and exponent for spec."""
    ctx = spec.ctx
    case_in = sqrt_case(spec.alpha) == CASE_IN
    b = bezout(spec)
    if spec.n % 2 == 0:
        raise ValueError("the closed forms require odd n")
    if case_in:
        n_inv = b.n1
        if n_inv is None:
            raise ValueError(
                f"gcd(n, 2(q-1)) = {math.gcd(spec.n, 2 * (ctx.q - 1))} != 1; "
                "no inverse exponent n1")
        case = "I1" if spec.variant == "H" else "I3"
    else:
        n_inv = b.n2
        if n_inv is None:
            raise ValueError(
                f"gcd(n, 2(q+1)) = {math.gcd(spec.n, 2 * (ctx.q + 1))} != 1; "
                "no inverse exponent n2")
        case = "I2" if spec.variant == "H" else "I4"
    root = ctx.sqrt(spec.alpha)[0] if sqrt_choice is None else sqrt_choice
    if root * root != spec.alpha:
        raise ValueError("sqrt_choice is not a square root of alpha")
    return MuInverse(case, spec.n, n_inv, spec.alpha, root)


def _mu_inverse_power_form(inv: MuInverse, x: Felt) -> Felt:
    """Total evaluation path; only integer powers of alpha appear."""
    ctx = inv.ctx
    q = ctx.q
    n, ni, alpha = inv.n, inv.n_inv, inv.alpha
    if inv.case in ("I1", "I2"):
        y = alpha ** ((n - 1) // 2) * x
        _, hv = _gh_eval_packed(ctx, ni, alpha.val, y.val)
        core = x ** ni * Felt(ctx, hv) ** (q - 1)
        if inv.case == "I1":
            return alpha ** ((n * ni - 1) // 2) * core
        return core
    y = alpha ** ((n + 1) // 2) * x
    gv, _ = _gh_eval_packed(ctx, ni, alpha.val, y.val)
    core = x ** ni * Felt(ctx, gv) ** (q - 1)
    if inv.case == "I3":
        return alpha ** (ni + (n * ni + 1) // 2) * core
    return alpha ** (ni + 1) * core


def _mu_inverse_rational_form(inv: MuInverse, x: Felt) -> Felt | None:
    """Fraction form; None where the denominator vanishes."""
    s = inv.sqrt_alpha
    if inv.case in ("I1", "I2"):
        w = s ** (inv.n - 2) * x
    else:
        w = s ** inv.n * x
    one = inv.ctx.one()
    u = (w + one) ** inv.n_inv
    v = (w - one) ** inv.n_inv
    if inv.case in ("I1", "I2"):
        num, den = u + v, u - v
    else:
        num, den = u - v, u + v
    if den.val == 0:
        return None
    return s * num / den


def mu_inverse_eval(inv: MuInverse, x: Felt) -> Felt:
    """Evaluate the closed-form inverse at x in mu_{q+1}.

    The power form is the primary, total path; the rational form is
    evaluated as a cross-check wherever defined, and both must agree.
    The result lies in mu_{q+1} again.
    """
    ctx = inv.ctx
    if not x.in_mu(ctx.q + 1):
        raise ValueError("argument must lie in mu_{q+1}")
    value = _mu_inverse_power_form(inv, x)
    rational = _mu_inverse_rational_form(inv, x)
    if rational is not None and rational != value:
        raise ArithmeticError(
            "power form and rational form of the coset inverse disagree")
    if not value.in_mu(ctx.q + 1):
        raise ArithmeticError("coset inverse left mu_{q+1}")
    return value


def lift_inverse(spec: PermSpec, inv: MuInverse | None = None) -> CosetMap:
    """Lift the coset inverse to a total inverse evaluator on F_{q^2}.

    P^{-1}(x) = x^(r'(q^2-q+1)) * F(I(y))^(r'(q-2)) * I(y) with y = x^(q-1)
    depends on x only through its power and its coset, so the coset part is
    tabulated over the q+1 values of y.

    Requires gcd(n + m(q+1), q^2-1) = 1.  When the root of alpha lies in
    mu_{q+1} this adds gcd(n, q+1) = 1 on top of the permutation criterion,
    and the refusal names the failing gcd; the other two routes remain
    available for such specs.
    """
    ctx = spec.ctx
    verdict = check_criterion(spec)
    if not verdict.is_perm:
        failed = [c.name for c in verdict.conditions if not c.passed]
        raise ValueError(f"not a permutation; failing conditions: {failed}")
    b = bezout(spec)
    if b.r_prime_full is None:
        raise ValueError(
            f"gcd(r, q^2-1) = {math.gcd(spec.r, ctx.units)} != 1 "
            f"(gcd(n, q+1) = {math.gcd(spec.n, ctx.q + 1)}); "
            "the closed-form lift does not apply")
    if inv is None:
        inv = mu_inverse(spec)
    q, N = ctx.q, ctx.units
    rp = b.r_prime_full
    e1 = (rp * (q * q - q + 1)) % N
    e2 = (rp * (q - 2)) % N
    av = spec.alpha.val
    pick = 1 if spec.variant == "H" else 0
    table = []
    for y in ctx.mu(q + 1):
        iv = mu_inverse_eval(inv, y)
        fv = _gh_eval_packed(ctx, spec.n, av, iv.val)[pick]
        if fv == 0:
            raise ArithmeticError("coset factor vanishes at a coset inverse")
        table.append(ctx.mul_packed(ctx.pow_packed(fv, e2), iv.val))
    return CosetMap(ctx, e1, table)


class InverseTable:
    """Exhaustive inverse of a bijective point evaluator; the ground truth."""

    __slots__ = ("ctx", "_table")

    def __init__(self, ctx: FieldCtx, table: list[int]):
        self.ctx = ctx
        self._table = table

    def eval_packed(self, xv: int) -> int:
        return self._table[xv]

    def __call__(self, x: Felt) -> Felt:
        return Felt(self.ctx, self._table[x.val])


def inverse_table(ctx: FieldCtx, f, size_bound: int | None = None) -> InverseTable:
    """Invert f by evaluating it everywhere; errors with a collision witness."""
    table, collision = scan(ctx, f, size_bound)
    if collision is not None:
        a, b, v = (Felt(ctx, xv) for xv in collision)
        raise ValueError(
            f"not a bijection: inputs {a!r} and {b!r} both map to {v!r}")
    return InverseTable(ctx, table)


# ---------------------------------------------------------------------------
# Route agreement.
# ---------------------------------------------------------------------------

def _value_digest(ctx: FieldCtx, f) -> str:
    h = hashlib.sha256()
    width = (ctx.q2.bit_length() + 7) // 8
    fn = packed_fn(ctx, f)
    for xv in range(ctx.q2):
        h.update(fn(xv).to_bytes(width, "little"))
    return h.hexdigest()


def agreement_report(spec: PermSpec,
                     routes: tuple[str, ...] = ("cyclotomic", "closed", "table"),
                     size_bound: int | None = None) -> dict:
    """Compute the requested inverse routes and compare their value tables.

    Each computed route contributes the digest of its full value table on
    F_{q^2}; routes whose hypotheses fail are recorded under "skipped" with
    the refusal reason.  "agree" is true when all computed digests coincide
    and at least one route was computed.
    """
    ctx = spec.ctx
    digests: dict[str, str] = {}
    skipped: dict[str, str] = {}
    _, perm_eval = build_perm_poly(spec)
    for route in routes:
        try:
            if route == "cyclotomic":
                inverse = inverse_cyclotomic(spec, size_bound)
            elif route == "closed":
                inverse = lift_inverse(spec)
            elif route == "table":
                inverse = inverse_table(ctx, perm_eval, size_bound)
            else:
                raise ValueError(f"unknown route {route!r}")
        except (ValueError, ArithmeticError) as exc:
            skipped[route] = str(exc)
            continue
        digests[route] = _value_digest(ctx, inverse)
    agree = len(set(digests.values())) == 1 if digests else False
    return {
        "spec": spec.to_record(),
        "routes": digests,
        "skipped": skipped,
        "agree": agree,
    }
