"""Sparse univariate polynomials over F_{q^2}.

Polynomials are maps from exponent to nonzero coefficient.  The constructions
in this library produce binomials and trinomials whose exponents are spread
over the whole range [1, q^2 - 1], so a dense vector would be almost all
zeros; the sparse form keeps every operation proportional to the number of
terms actually present.

Besides ring arithmetic and composition, the module provides the functional
reduction modulo x^(q^2) - x used to normalise evaluation maps on F_{q^2},
and the (extended) Euclidean algorithm for monic gcds.  Exponents stay
non-negative integers throughout; reduction sends every positive exponent
into [1, q^2 - 1] so that the value at 0 is never disturbed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .field_tower import Felt, FieldCtx

DEFAULT_DEGREE_CAP = 10 ** 6


class Poly:
    """Sparse polynomial; terms maps exponent -> nonzero Felt coefficient."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms: dict[int, Felt]):
        self.ctx = ctx
        self.terms = {e: c for e, c in terms.items() if c.val != 0}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, {0: ctx.one()})

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, {1: ctx.one()})

    @classmethod
    def monomial(cls, ctx: FieldCtx, e: int, c: "Felt | int" = 1) -> "Poly":
        if e < 0:
            raise ValueError("exponents must be non-negative")
        coeff = c if isinstance(c, Felt) else ctx.scalar(c)
        return cls(ctx, {e: coeff})

    @classmethod
    def from_terms(cls, ctx: FieldCtx,
                   pairs: Iterable[tuple[int, "Felt | int"]]) -> "Poly":
        terms: dict[int, Felt] = {}
        for e, c in pairs:
            if e < 0:
                raise ValueError("exponents must be non-negative")
            coeff = c if isinstance(c, Felt) else ctx.scalar(c)
            if e in terms:
                coeff = terms[e] + coeff
            if coeff.val != 0:
                terms[e] = coeff
            else:
                terms.pop(e, None)
        return cls(ctx, terms)

    # -- basic queries ---------------------------------------------------------

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return max(self.terms) if self.terms else -1

    def is_zero(self) -> bool:
        return not self.terms

    def leading(self) -> Felt:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms)]

    def coeff(self, e: int) -> Felt:
        return self.terms.get(e, self.ctx.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)})"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.val:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ctx, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            ctx = self.ctx
            out: dict[int, int] = {}
            add = ctx.add_packed
            mul = ctx.mul_packed
            for e1, c1 in self.terms.items():
                v1 = c1.val
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    out[e] = add(out.get(e, 0), mul(v1, c2.val))
            return Poly(ctx, {e: Felt(ctx, v) for e, v in out.items() if v})
        if isinstance(other, (Felt, int)):
            c = other if isinstance(other, Felt) else self.ctx.scalar(other)
            return Poly(self.ctx, {e: co * c for e, co in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, d: int) -> "Poly":
        """Multiply by x^d (d >= 0): shift every exponent up by d."""
        if d < 0:
            raise ValueError("shift must be non-negative")
        return Poly(self.ctx, {e + d: c for e, c in self.terms.items()})

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv_lead = self.leading().inv()
        return self * inv_lead

    def __call__(self, x: Felt) -> Felt:
        return poly_eval(self, x)

    # -- serialization -----------------------------------------------------------

    def to_pairs(self) -> list[tuple[int, list[int]]]:
        """Machine form: (exponent, coefficient vector) pairs, ascending."""
        return [(e, self.terms[e].to_coeffs()) for e in sorted(self.terms)]

    @classmethod
    def from_pairs(cls, ctx: FieldCtx,
                   pairs: Iterable[Sequence]) -> "Poly":
        return cls.from_terms(ctx, ((int(e), ctx.from_coeffs(c)) for e, c in pairs))


def poly_eval(f: Poly, x: Felt) -> Felt:
    """f(x) by term-wise powering; exact."""
    ctx = f.ctx
    xv = x.val
    acc = 0
    add, mul, powp = ctx.add_packed, ctx.mul_packed, ctx.pow_packed
    for e, c in f.terms.items():
        acc = add(acc, mul(c.val, powp(xv, e)))
    return Felt(ctx, acc)


def poly_add(f: Poly, g: Poly) -> Poly:
    return f + g


def poly_sub(f: Poly, g: Poly) -> Poly:
    return f - g


def poly_mul(f: Poly, g: Poly) -> Poly:
    return f * g


def poly_pow(f: Poly, e: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> Poly:
    if e < 0:
        raise ValueError("polynomial powers must be non-negative")
    if f.degree() * max(e, 1) > degree_cap:
        raise ValueError("degree cap exceeded in poly_pow")
    result = Poly.one(f.ctx)
    acc = f
    while e:
        if e & 1:
            result = result * acc
        e >>= 1
        if e:
            acc = acc * acc
    return result


def poly_compose(f: Poly, g: Poly, degree_cap: int = DEFAULT_DEGREE_CAP) -> Poly:
    """f(g(x)).

    When g is a monomial c*x^d the composition is exact exponent arithmetic
    (e -> d*e with coefficient c^e) and no degree cap applies; that is the
    path used for substituting x^(q-1).  Otherwise the result degree
    deg(f)*deg(g) must stay within degree_cap.
    """
    ctx = f.ctx
    if len(g.terms) == 1:
        (d, c), = g.terms.items()
        return Poly.from_terms(
            ctx, ((d * e, (c ** e) * co) for e, co in f.terms.items()))
    if f.is_zero():
        return Poly.zero(ctx)
    if f.degree() > 0 and g.degree() > 0 and f.degree() * g.degree() > degree_cap:
        raise ValueError("degree cap exceeded in poly_compose")
    # powers of g in ascending exponent order, reusing the previous power
    result = Poly.zero(ctx)
    prev_e = 0
    power = Poly.one(ctx)
    for e in sorted(f.terms):
        power = power * poly_pow(g, e - prev_e, degree_cap)
        prev_e = e
        result = result + power * f.terms[e]
    return result


def reduce_functional(f: Poly) -> Poly:
    """Reduce exponents so the evaluation map on F_{q^2} is unchanged.

    The constant term is kept; every exponent e > 0 is replaced by
    ((e - 1) mod (q^2 - 1)) + 1, which lies in [1, q^2 - 1].  Keeping
    positive exponents positive preserves f(0).  Coefficients landing on
    the same exponent are summed.
    """
    ctx = f.ctx
    N = ctx.units
    out: dict[int, Felt] = {}
    for e, c in f.terms.items():
        er = e if e == 0 else ((e - 1) % N) + 1
        s = out.get(er)
        s = c if s is None else s + c
        if s.val:
            out[er] = s
        else:
            out.pop(er, None)
    return Poly(ctx, out)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of f by nonzero g."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    ctx = f.ctx
    inv_lead = g.leading().inv()
    dg = g.degree()
    quo: dict[int, Felt] = {}
    rem = dict(f.terms)
    while rem:
        dr = max(rem)
        if dr < dg:
            break
        c = rem[dr] * inv_lead
        shift = dr - dg
        quo[shift] = c
        for e, ge in g.terms.items():
            tgt = e + shift
            s = rem.get(tgt, ctx.zero()) - c * ge
            if s.val:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return Poly(ctx, quo), Poly(ctx, rem)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; errors when both are zero."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    a, b = f, g
    while not b.is_zero():
        _, r = poly_divmod(a, b)
        a, b = b, r
    return a.monic()


def poly_gcd_ext(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with d = gcd monic and u*f + v*g = d."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    ctx = f.ctx
    r0, r1 = f, g
    s0, s1 = Poly.one(ctx), Poly.zero(ctx)
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    inv_lead = r0.leading().inv()
    return r0 * inv_lead, s0 * inv_lead, t0 * inv_lead


def render_terms(pairs: Iterable[tuple[int, Sequence[int]]]) -> str:
    """Human-readable 'c*x^e + ...', highest exponent first.

    pairs holds (exponent, coefficient vector); exponents may have either
    sign.  Prime-field scalars print as plain integers, a unit coefficient
    is left out.
    """
    parts = []
    for e, coeffs in sorted(pairs, key=lambda t: -t[0]):
        cs = (str(coeffs[0]) if not any(coeffs[1:])
              else "(" + ",".join(str(d) for d in coeffs) + ")")
        if e == 0:
            parts.append(cs)
            continue
        xs = "x" if e == 1 else (f"x^{e}" if e > 0 else f"x^({e})")
        parts.append(xs if cs == "1" else f"{cs}*{xs}")
    return " + ".join(parts) or "0"


def render_poly(f: Poly) -> str:
    """Human-readable form, highest exponent first: c*x^e + ..."""
    return render_terms((e, c.coeffs) for e, c in f.terms.items())
