"""Compositional inverses of the constructed permutations, by three routes.

Route "cyclotomic": a coefficient polynomial with q+1 terms,

    P^{-1}(x) = 1/(q+1) * sum_{i,j=0..q} zeta^(t*i - r*i*j) (x / A_i)^(r1 + (q-1)j)

reduced mod x^(q^2) - x, where r = n + m(q+1), the integers r1, t solve
r*r1 + (q-1)*t = 1, and A_i is H_n(zeta^i, alpha) for variant H (G_n for
variant G).  The leading scalar is the field identity, because q+1 reduces
to 1 mod p, so no coefficient is scaled by it.  P's CosetMap.inverse(),
the one O(q) inverse (Q. Wang's inverses of cyclotomic mappings), gives
the exponents r1 + (q-1)j, and the coefficients are the length-(q+1) DFT
of its table, a mixed-radix Cooley-Tukey transform on discrete logs,
O(q * sum of the prime factors of q+1) Zech steps.  The double sum is the
reference: a few coefficients are recomputed from it with add_packed and
mul_packed, and the polynomial must send P(x) back to x at a few points;
a mismatch raises ArithmeticError.

Route "closed": the permutation restricted to cosets is inverted on
mu_{q+1} by one of four closed forms (I1/I2 for variant H, I3/I4 for
variant G, split on whether a square root of alpha lies in mu_{q+1}),
then lifted to all of F_{q^2} by

    P^{-1}(x) = (x^(q^2-q+1) * F(I(x^(q-1)))^(q-2))^(r') * I(x^(q-1))

with r*r' = 1 mod q^2-1.  The lift needs gcd(r, q^2-1) = 1; in the
root-in-mu case that amounts to the extra hypothesis gcd(n, q+1) = 1,
and the route refuses (with the failing gcd) when it does not hold,
even though the permutation itself is certified.  I is tabulated on
mu_{q+1} once per spec from one closed-form G/H table (redei.gh_table)
and log-domain powers.  The table must lie in mu_{q+1} and agree with the
pair-powered mu_inverse_eval at a few points, and the lift must equal
CosetMap.inverse() of P at the q+1 coset representatives, with its
exponent congruent mod q-1; a failure raises ArithmeticError.
mu_inverse_eval stays the per-point reference.

Route "table": exhaustive inversion of the value table, the ground truth.

route_inverse(spec, route, perm) builds each route from perm, P's
CosetMap, which agreement_report and the CLI's invert build once per spec.
The cyclotomic and closed routes take it as an optional argument and
build it when it is None; both are certified by _certified, the one home
of the criterion's refusal (ValueError, before any map is built) and of
the Akbary-Ghioca-Wang check that perm.inverse() exists (ArithmeticError).

Route agreement digests each route's values at all q^2 points from one
unsigned array per map (packed_table), hashed from its bytes a range at a
time: the InverseTable's own array, a CosetMap's rows laid out at their
points, or the cyclotomic Poly filled by poly_eval per packed point
(Poly.eval_range), which makes no Felt for a point or its value.
All exponents of the cyclotomic inverse are congruent to r1 mod q-1, so
poly_eval evaluates it through its coset form x^r1 * g(x^(q-1)): g is
tabulated on mu_{q+1} once, by the term sum at the q+1 coset
representatives (CosetMap.from_poly, O(q^2) for q+1 terms), and each point
costs O(1), O(q^2) over the field instead of O(q^3) term by term.

Every closed form is evaluated through its total power form; the rational
fraction form is evaluated alongside as a cross-check wherever its
denominator is nonzero, and the two must agree.  All published exponents
that look like half-integer powers of alpha are realised as integer powers
of the chosen square root, and all results are checked independent of
that choice of sign.
"""

from __future__ import annotations

import math
import sys
from array import array
from typing import NamedTuple

from .construct import (CASE_IN, CosetMap, PermSpec, _packed_table, _ranges,
                        check_criterion, perm_coset_map, scan, sqrt_case)
from .field_tower import (Felt, FieldCtx, _prime_factors, require_field,
                          spot_positions)
from .polyring import Poly, _eval_terms
from .redei import _gh_eval_packed, gh_table


def _modinv_or_none(a: int, mod: int) -> int | None:
    if math.gcd(a, mod) != 1:
        return None
    return pow(a, -1, mod)


class BezoutData(NamedTuple):
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
        return self._asdict()


def bezout(spec: PermSpec) -> BezoutData:
    """Solve the inverse-formula congruences for a construction request."""
    ctx = spec.ctx
    q = ctx.q
    r, n = spec.r, spec.n
    r_prime = _modinv_or_none(r, q - 1)
    t = None if r_prime is None else (1 - r * r_prime) // (q - 1)
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


def _dft_logs(ctx: FieldCtx, logs: list[int], step: int) -> list[int]:
    """log X_j for X_j = sum_k gamma^(logs[k] + j*k*step), j < M = len(logs),
    q^2-1 standing for 0; M*step must be 0 mod q^2-1.  Recursive mixed-radix
    Cooley-Tukey: with r the least prime factor of M, X_j = sum_k0
    gamma^(j*k0*step) * Y_k0[j mod M/r], Y_k0 the transform of logs[k0::r] at
    step r*step; one sum_powers of r logs per output, M * (sum of M's prime
    factors) terms in all."""
    M = len(logs)
    if M == 1:
        return logs
    r = _prime_factors(M)[0]
    m, N, log = M // r, ctx.units, ctx._log
    subs = [_dft_logs(ctx, logs[k0::r], step * r) for k0 in range(r)]
    sums = (ctx.sum_powers([y[j % m] + j * k0 * step
                            for k0, y in enumerate(subs) if y[j % m] != N])
            for j in range(M))
    return [log[v] if v else N for v in sums]


def _certified(spec: PermSpec,
               perm: CosetMap | None) -> tuple[CosetMap, CosetMap]:
    """(P's coset map, its inverse) for a spec the criterion certifies.

    A spec the criterion refuses raises ValueError(verdict.failure) before
    any map is built; perm, P's map, is built only when the caller passes
    None; and a map with no CosetMap.inverse() raises ArithmeticError, as
    the criterion and the O(q) certificate (Akbary-Ghioca-Wang) disagree.
    """
    verdict = check_criterion(spec)
    if not verdict.is_perm:
        raise ValueError(verdict.failure)
    perm = perm_coset_map(spec) if perm is None else perm
    inv = perm.inverse()
    if inv is None:
        raise ArithmeticError("the gcd criterion certifies a map that does not "
                              "permute F_{q^2} (Akbary-Ghioca-Wang)")
    return perm, inv


def inverse_cyclotomic(spec: PermSpec, perm: CosetMap | None = None) -> Poly:
    """The coefficient-form inverse, a (q+1)-term polynomial, reduced.

    Requires the criterion to certify spec as a permutation; perm is P's
    CosetMap, built here when None (_certified).

    The forward map's CosetMap.inverse() is x^r1 * g(x^(q-1)) with
    g(zeta^k) = T'[k], its table, so coefficient j is the DFT
    sum_k T'[k]*zeta^(-jk) (_dft_logs).
    Two independent O(q) checks keep it honest, and either mismatch raises
    ArithmeticError: SPOT_CHECKS coefficients are recomputed from the
    double sum with add_packed and mul_packed (_cyclotomic_coefficient),
    and the polynomial, summed term by term (_eval_terms, not poly_eval),
    must send P(gamma^s) back to gamma^s at SPOT_CHECKS coset
    representatives, a check that involves every coefficient.
    """
    ctx = spec.ctx
    perm, inv = _certified(spec, perm)
    exp, log, N, zl = ctx._exp, ctx._log, ctx.units, ctx.q - 1  # zl: log of zeta
    sums = [0 if l == N else exp[l]
            for l in _dft_logs(ctx, [log[v] for v in inv.table], -zl)]
    b = bezout(spec)
    for j in spot_positions(ctx.q + 1):
        if sums[j] != _cyclotomic_coefficient(spec, b, perm.table, j):
            raise ArithmeticError(
                f"cyclotomic coefficient of x^{inv.e + zl * j} disagrees with "
                "the term-by-term sum")
    inverse = Poly(ctx, {inv.e + zl * j: Felt(ctx, v)
                         for j, v in enumerate(sums) if v})
    for s in spot_positions(ctx.q + 1):
        if _eval_terms(inverse, perm.eval_packed(exp[s])) != exp[s]:
            raise ArithmeticError(
                f"cyclotomic inverse does not send P(gamma^{s}) back to gamma^{s}")
    return inverse


def _cyclotomic_coefficient(spec: PermSpec, b: BezoutData, a_table: list[int],
                            j: int) -> int:
    """Packed sum_i zeta^(t*i - r*i*j) * A_i^-(r1 + (q-1)j), term by term
    with add_packed and mul_packed, O(q): the reference for coefficient j."""
    ctx = spec.ctx
    q, N, exp, log, r = ctx.q, ctx.units, ctx._exp, ctx._log, spec.r
    e_j = b.r_prime + (q - 1) * j
    acc = 0
    for i, a in enumerate(a_table):
        zpow = exp[(q - 1) * ((b.t * i - r * i * j) % (q + 1)) % N]
        acc = ctx.add_packed(acc, ctx.mul_packed(zpow, exp[(-log[a] * e_j) % N]))
    return acc


class MuInverse(NamedTuple):
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


def mu_inverse(spec: PermSpec) -> MuInverse:
    """Select the applicable closed-form case and exponent for spec;
    sqrt_alpha is ctx.sqrt(alpha)[0] (no result depends on the sign)."""
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
    return MuInverse(case, spec.n, n_inv, spec.alpha, ctx.sqrt(spec.alpha)[0])


def _power_form_exponents(inv: MuInverse) -> tuple[int, int, int]:
    """(pick, shift, scale) with I(x) = alpha^scale * x^n' * F(y)^(q-1),
    y = alpha^shift * x, F = H_{n'} (pick 1, cases I1/I2) or G_{n'} (pick 0,
    cases I3/I4): only integer powers of alpha appear."""
    n, ni = inv.n, inv.n_inv
    if inv.case in ("I1", "I2"):
        return 1, (n - 1) // 2, (n * ni - 1) // 2 if inv.case == "I1" else 0
    return 0, (n + 1) // 2, ni + ((n * ni + 1) // 2 if inv.case == "I3" else 1)


def _mu_inverse_power_form(inv: MuInverse, x: Felt) -> Felt:
    """Total evaluation path, F by pair powering (redei._gh_eval_packed)."""
    ctx, alpha = inv.ctx, inv.alpha
    pick, shift, scale = _power_form_exponents(inv)
    fv = _gh_eval_packed(ctx, inv.n_inv, alpha.val, (alpha ** shift * x).val)[pick]
    return alpha ** scale * x ** inv.n_inv * Felt(ctx, fv) ** (ctx.q - 1)


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
    require_field(ctx, x)
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


def _mu_inverse_values(inv: MuInverse) -> list[int]:
    """The power form of mu_inverse_eval at zeta^j, j = 0..q, as one table.

    F(y) (H_{n'} for I1/I2, G_{n'} for I3/I4) comes from one redei.gh_table
    call at the points y = alpha^((n -+ 1)/2) * zeta^j; the powers of
    zeta^j, F(y) and alpha are then multiples of discrete logs.
    """
    ctx = inv.ctx
    q, N, exp, log = ctx.q, ctx.units, ctx._exp, ctx._log
    ni, av = inv.n_inv, inv.alpha.val
    pick, shift, scale = _power_form_exponents(inv)
    zl, la = q - 1, log[av]
    fvs = gh_table(ctx, ni, av, pick,
                   [exp[(shift * la + zl * j) % N] for j in range(q + 1)])
    if 0 in fvs:
        raise ArithmeticError("coset inverse left mu_{q+1}")
    return [exp[(scale * la + zl * (j * ni + log[fv])) % N]
            for j, fv in enumerate(fvs)]


def _check_mu_table(inv: MuInverse, table: list[int]) -> None:
    """Two independent checks of the mu-inverse table; ArithmeticError on
    any failure.

    Every entry must lie in mu_{q+1} (lift_inverse reads the coset factor
    table at log / (q-1)), and SPOT_CHECKS entries must equal
    mu_inverse_eval (pair powering, power form against rational form).
    """
    ctx = inv.ctx
    q, exp, log = ctx.q, ctx._exp, ctx._log
    zl = q - 1
    if len(table) != q + 1 or any(v == 0 or log[v] % zl for v in table):
        raise ArithmeticError("mu-inverse table leaves mu_{q+1}")
    for j in spot_positions(q + 1):
        if table[j] != mu_inverse_eval(inv, Felt(ctx, exp[zl * j])).val:
            raise ArithmeticError(
                f"mu-inverse table disagrees with mu_inverse_eval at zeta^{j}")


def lift_inverse(spec: PermSpec, perm: CosetMap | None = None) -> CosetMap:
    """Lift the coset inverse to a total inverse evaluator on F_{q^2}.

    P^{-1}(x) = x^(r'(q^2-q+1)) * F(I(y))^(r'(q-2)) * I(y) with y = x^(q-1)
    depends on x only through its power and its coset, so the coset part is
    tabulated over the q+1 values of y.  I is tabulated once per spec
    (_mu_inverse_values: one gh_table call and log-domain powers, no pair
    powering per point) from mu_inverse(spec) and checked by
    _check_mu_table; F(I(y)) is then read off the coset factor table of
    perm, P's CosetMap (built when None, _certified), since I(y) lies in
    mu_{q+1}.  The lift must equal perm's CosetMap.inverse() at
    gamma^0..gamma^q with an exponent congruent mod q-1, which pins down
    every point; else ArithmeticError.

    Requires gcd(n + m(q+1), q^2-1) = 1.  When the root of alpha lies in
    mu_{q+1} this adds gcd(n, q+1) = 1 on top of the permutation criterion,
    and the refusal names the failing gcd; the other two routes remain
    available for such specs.
    """
    ctx = spec.ctx
    perm, want = _certified(spec, perm)
    b = bezout(spec)
    if b.r_prime_full is None:
        raise ValueError(
            f"gcd(r, q^2-1) = {math.gcd(spec.r, ctx.units)} != 1 "
            f"(gcd(n, q+1) = {math.gcd(spec.n, ctx.q + 1)}); "
            "the closed-form lift does not apply")
    inv = mu_inverse(spec)
    q, N, exp, log = ctx.q, ctx.units, ctx._exp, ctx._log
    e1 = (b.r_prime_full * (q * q - q + 1)) % N
    e2 = (b.r_prime_full * (q - 2)) % N
    ivs = _mu_inverse_values(inv)
    _check_mu_table(inv, ivs)
    zl = q - 1  # I(y) = zeta^k with k = log I(y) / (q-1), so F(I(y)) = A_k
    lift = CosetMap(ctx, e1, [exp[(e2 * log[perm.table[log[iv] // zl]] + log[iv]) % N]
                              for iv in ivs])
    if (e1 - want.e) % zl or any(
            lift.eval_packed(x) != want.eval_packed(x) for x in exp[:q + 1]):
        raise ArithmeticError("closed-form lift disagrees with P's coset inverse")
    return lift


class InverseTable:
    """Exhaustive inverse of a bijective point evaluator; the ground truth."""

    __slots__ = ("ctx", "_table")

    def __init__(self, ctx: FieldCtx, table: list[int] | array):
        if len(table) != ctx.q2:
            raise ValueError(f"an inverse table has q^2 = {ctx.q2} entries, "
                             f"not {len(table)}")
        self.ctx = ctx
        self._table = table

    def eval_range(self, start: int, stop: int) -> list[int] | array:
        return self._table[start:stop]

    def __call__(self, x: Felt) -> Felt:
        require_field(self.ctx, x)
        v = self._table[x.val]
        if not 0 <= v < self.ctx.q2:  # per point: no O(q^2) pass at build
            raise ValueError(f"inverse table entry {v} is not a packed value "
                             f"0..{self.ctx.q2 - 1}")
        return Felt(self.ctx, v)


def inverse_table(ctx: FieldCtx, f) -> InverseTable:
    """Invert f by evaluating it everywhere; errors with a collision witness."""
    table, collision = scan(ctx, f)
    if collision is not None:
        a, b, v = (Felt(ctx, xv) for xv in collision)
        raise ValueError(
            f"not a bijection: inputs {a!r} and {b!r} both map to {v!r}")
    return InverseTable(ctx, table)


# ---------------------------------------------------------------------------
# Route agreement.
# ---------------------------------------------------------------------------

def packed_table(ctx: FieldCtx, f) -> array:
    """f's packed values at 0, 1, ..., q^2-1 in one construct._packed_table
    array, the one layout of a whole map.

    An InverseTable that holds an array is that array, returned as it is,
    with no copy.  A CosetMap's checked rows come as (points, row) pairs
    (CosetMap.log_rows), each value scattered to its point as the scan
    stores preimages, with slot 0 left at 0.  Any other map, a Poly or a
    list-backed InverseTable, is filled a range at a time from eval_range.
    """
    require_field(ctx, f)
    if isinstance(f, InverseTable) and isinstance(f._table, array):
        return f._table
    table = _packed_table(ctx.q2, 0)
    if isinstance(f, CosetMap):
        for points, row in f.log_rows():
            for x, v in zip(points, row):
                table[x] = v
    else:
        for start, stop in _ranges(ctx.q2):
            table[start:stop] = array(table.typecode, f.eval_range(start, stop))
    return table


def _little_endian(values: array, width: int) -> bytearray:
    """b"".join(v.to_bytes(width, "little") for v in values), built in C
    from an array with items of at least width bytes, such as a range of
    packed_table: the high byte of every item is dropped until width bytes
    are left.  values itself is never changed."""
    packed = values
    if sys.byteorder == "big":
        packed = packed[:]  # byteswap works in place
        packed.byteswap()
    out = bytearray(packed)
    for size in range(packed.itemsize, width, -1):
        del out[size - 1::size]
    return out


def _value_digest(ctx: FieldCtx, f) -> str:
    """sha256 of f's packed values at 0, ..., q^2-1 (packed_table), each
    little-endian in the byte width of q^2; fed to the hash one range of
    the table at a time, so no q^2-byte copy is made.  hashlib (and with it
    OpenSSL) is imported here, on the first digest, not with the package."""
    import hashlib
    h = hashlib.sha256()
    width = (ctx.q2.bit_length() + 7) // 8
    table = packed_table(ctx, f)
    for start, stop in _ranges(ctx.q2):
        h.update(_little_endian(table[start:stop], width))
    return h.hexdigest()


ROUTES = ("cyclotomic", "closed", "table")


def route_inverse(spec: PermSpec, route: str, perm: CosetMap):
    """spec's inverse by the named route from perm, P's CosetMap: the one
    place that maps a name in ROUTES to its constructor, looked up at call
    time.  Each route raises its own ValueError when its hypotheses fail,
    as does an unknown name."""
    if route == "cyclotomic":
        return inverse_cyclotomic(spec, perm)
    if route == "closed":
        return lift_inverse(spec, perm)
    if route == "table":
        return inverse_table(spec.ctx, perm)
    raise ValueError(f"unknown route {route!r}")


def agreement_report(spec: PermSpec, routes: tuple[str, ...] = ROUTES) -> dict:
    """Compute the requested inverse routes and compare their value tables.

    Each computed route contributes the digest of its full value table on
    F_{q^2}; routes whose hypotheses fail (ValueError) are recorded under
    "skipped" with the refusal reason.  A failed internal check
    (ArithmeticError) is not a refusal and propagates.  "agree" is true
    when all computed digests coincide and at least one route was computed.
    An unknown route name is refused with ValueError before any work; then
    P's CosetMap is built once and every route reads it.
    """
    return _agreement(spec, routes)[0]


def _agreement(spec: PermSpec,
               routes: tuple[str, ...]) -> tuple[dict, CosetMap, dict]:
    """agreement_report's report, P's CosetMap and {route: inverse}."""
    for route in routes:
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}")
    perm = perm_coset_map(spec)
    inverses = {}
    digests: dict[str, str] = {}
    skipped: dict[str, str] = {}
    for route in routes:
        try:
            inverses[route] = route_inverse(spec, route, perm)
        except ValueError as exc:
            skipped[route] = str(exc)
            continue
        digests[route] = _value_digest(spec.ctx, inverses[route])
    agree = len(set(digests.values())) == 1 if digests else False
    return {
        "spec": spec.to_record(),
        "routes": digests,
        "skipped": skipped,
        "agree": agree,
    }, perm, inverses
