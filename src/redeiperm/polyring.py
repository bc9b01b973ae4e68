"""Sparse univariate polynomials over F_{q^2}.

Polynomials are maps from exponent to nonzero coefficient.  The constructions
in this library produce binomials and trinomials whose exponents are spread
over the whole range [1, q^2 - 1], so a dense vector would be almost all
zeros; the sparse form keeps every operation proportional to the number of
terms actually present.

Polys are built from terms; there are no ring operators, because the
paper's x^r * F(x^(q-1)) only scales and shifts exponents.  Besides
evaluation the module provides the functional reduction modulo x^(q^2) - x used to
normalise evaluation maps on F_{q^2}, and division with remainder for
monic gcds.  Exponents stay non-negative integers throughout; reduction
sends every positive exponent into [1, q^2 - 1] so that the value at 0 is
never disturbed.

Evaluation cost: the term sum (_eval_terms) takes f(x) for x != 0 as the
sum of gamma^(log c + e * log x) over the terms c*x^e, one Zech lookup per
term on a running log (FieldCtx.sum_powers), and f(0) as the constant term.
A polynomial without constant term whose exponents all agree mod q-1 equals
x^e * g(x^(q-1)), a map of coset shape (CosetMap).  poly_eval detects that
shape on first use, tabulates g on mu_{q+1} in O(q * terms) once per Poly
(the term sum at the q+1 coset representatives), and then costs O(1) per
point (a discrete log, a table pick, one multiplication) whatever the number
of terms.  Every other polynomial is evaluated by the term sum, O(terms)
per point.  The exhaustive loops read a map a range of consecutive points
at a time through eval_range: Poly.eval_range calls poly_eval once per
point.  A CosetMap is read through its LogTable (CosetMap.log_table): the
map's q^2-1 nonzero values in discrete-log order, built once per loop in
O(q) Python steps from strided slices of the exp table, then gathered a
range at a time through the log table in C, or read in log order by the
scan.  Only a scan of a CosetMap that fails permutes() runs
CosetMap.eval_range: eval_packed's arithmetic in one comprehension.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Sequence

from .field_tower import Felt, FieldCtx, require_field


class Poly:
    """Sparse polynomial; terms maps exponent -> nonzero Felt coefficient.

    terms is never changed after construction: _coset caches the coset form
    poly_eval derives from it (None until first use, False when f has no
    coset shape) and takes no part in equality.
    """

    __slots__ = ("ctx", "terms", "_coset")

    def __init__(self, ctx: FieldCtx, terms: dict[int, Felt]):
        require_field(ctx, *terms.values())
        if min(terms, default=0) < 0:
            raise ValueError("exponents must be non-negative")
        self.ctx = ctx
        self.terms = {e: c for e, c in terms.items() if c.val != 0}
        self._coset = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, {0: ctx.one()})

    @classmethod
    def from_terms(cls, ctx: FieldCtx,
                   pairs: Iterable[tuple[int, "Felt | int"]]) -> "Poly":
        terms: dict[int, Felt] = {}
        for e, c in pairs:
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({render_poly(self)})"

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv_lead = self.leading().inv()
        return Poly(self.ctx, {e: c * inv_lead for e, c in self.terms.items()})

    # -- evaluation ------------------------------------------------------------

    def __call__(self, x: Felt) -> Felt:
        return poly_eval(self, x)

    def eval_range(self, start: int, stop: int) -> list[int]:
        """Packed values at the packed points start, ..., stop-1, by one
        poly_eval call per point."""
        ctx = self.ctx
        return [poly_eval(self, Felt(ctx, xv)).val for xv in range(start, stop)]

    # -- serialization -----------------------------------------------------------

    def to_pairs(self) -> list[tuple[int, list[int]]]:
        """Machine form: (exponent, coefficient vector) pairs, ascending."""
        return [(e, self.terms[e].to_coeffs()) for e in sorted(self.terms)]


class CosetMap:
    """O(1)-per-point evaluator for x -> x^e * T[log x mod (q+1)], 0 -> 0.

    Every map the library builds or inverts has the shape x^e * F(x^(q-1)):
    the factor only depends on the coset of x modulo the (q-1)-th powers, so
    its q+1 packed values T are tabulated once; each evaluation is then a
    discrete log, a table pick and one multiplication.  A zero entry of T
    sends its whole coset to 0.  eval_range does the same for a range in
    one comprehension, with the logs of T taken once per map; log_table
    tabulates the map on all of F_{q^2} for a loop that reads every point.
    """

    __slots__ = ("ctx", "e", "table", "_table_logs")

    def __init__(self, ctx: FieldCtx, e: int, table: list[int]):
        if len(table) != ctx.q + 1:
            raise ValueError(f"a coset table has q+1 = {ctx.q + 1} entries, "
                             f"not {len(table)}")
        lo, hi = min(table), max(table)
        if lo < 0 or hi >= ctx.q2:
            raise ValueError(f"coset table entry {lo if lo < 0 else hi} is not "
                             f"a packed value 0..{ctx.q2 - 1}")
        self.ctx = ctx
        self.e = e
        self.table = table
        self._table_logs = [ctx._log[v] if v else None for v in table]

    @classmethod
    def from_poly(cls, f: Poly) -> "CosetMap | None":
        """The coset form of f, or None when f does not have that shape.

        f needs at least one term, no constant term (0 -> c0 does not fit
        x^e * T) and all exponents congruent mod q-1.  With e0 the least
        exponent, T[s] = f(gamma^s) * gamma^(-s*e0) for s = 0..q, each
        f(gamma^s) summed by the term sum (_eval_terms): O(q * terms),
        and the map equals f at the q+1 coset representatives gamma^s,
        which pins it down on every point.
        """
        ctx = f.ctx
        if not f.terms or 0 in f.terms:
            return None
        e0 = min(f.terms)
        if any((e - e0) % (ctx.q - 1) for e in f.terms):
            return None
        exp, N, mul = ctx._exp, ctx.units, ctx.mul_packed
        return cls(ctx, e0, [mul(_eval_terms(f, exp[s]), exp[-s * e0 % N])
                             for s in range(ctx.q + 1)])

    def sigma(self) -> list[int] | None:
        """sigma[s] = (e*s + log T[s]) mod (q+1), or None when T has a 0.

        b -> b^e * T(b)^(q-1) sends zeta^s to zeta^sigma[s] on mu_{q+1}.
        """
        if None in self._table_logs:
            return None
        e, q1 = self.e, self.ctx.q + 1
        return [(e * s + lt) % q1 for s, lt in enumerate(self._table_logs)]

    def permutes(self) -> bool:
        """Does the map permute F_{q^2}?  Exactly when gcd(e, q-1) = 1 and
        sigma permutes 0..q (Akbary-Ghioca-Wang): O(q), no point evaluated."""
        if math.gcd(self.e, self.ctx.q - 1) != 1:
            return False
        sigma = self.sigma()
        return sigma is not None and len(set(sigma)) == self.ctx.q + 1

    def eval_packed(self, xv: int) -> int:
        if xv == 0:
            return 0
        ctx = self.ctx
        t = ctx._log[xv]
        lt = self._table_logs[t % (ctx.q + 1)]
        if lt is None:
            return 0
        return ctx._exp[(self.e * t + lt) % ctx.units]

    def eval_range(self, start: int, stop: int) -> list[int]:
        """Packed values at the packed points start, ..., stop-1."""
        ctx = self.ctx
        exp, e, N, q1, tl = ctx._exp, self.e, ctx.units, ctx.q + 1, self._table_logs
        out = [0 if (lt := tl[t % q1]) is None else exp[(e * t + lt) % N]
               for t in ctx._log[max(start, 1):stop]]
        if start == 0 < stop:  # log 0 is undefined; 0 -> 0
            out.insert(0, 0)
        return out

    def log_values(self) -> list[int]:
        """The map at gamma^0, ..., gamma^(q^2-2), in discrete-log order.

        gamma^(s + (q+1)k) goes to gamma^(c_s + (q+1)(e*k mod (q-1))) with
        c_s = (e*s + log T[s]) mod (q^2-1), so row s (positions s, s+q+1,
        ...) is the slice of exp with stride q+1 from c_s, wrapped round,
        and permuted by k -> e*k mod (q-1), one permutation for every row.
        A zero entry of T gives a zero row.  O(q) Python steps and about
        3*q^2 element copies in C.
        """
        ctx = self.ctx
        e, q1, qm, N, exp = self.e, ctx.q + 1, ctx.q - 1, ctx.units, ctx._exp
        spread = itemgetter(*[e * k % qm for k in range(qm)])
        values = [0] * N
        for s, lt in enumerate(self._table_logs):
            if lt is not None:
                c = (e * s + lt) % N
                values[s::q1] = spread(exp[c::q1] + exp[c % q1:c:q1])
        return values

    def log_table(self) -> "LogTable":
        """log_values as a LogTable, checked in O(q): at the q+1 coset
        representatives gamma^s, one point of every row, and at
        GH_SPOT_CHECKS points spread over the logs, the value must equal
        gamma^(e*t) * T[t mod (q+1)] by mul_packed; a mismatch raises
        ArithmeticError."""
        from .redei import spot_positions  # redei imports this module
        ctx = self.ctx
        q1, N, exp, mul = ctx.q + 1, ctx.units, ctx._exp, ctx.mul_packed
        values = self.log_values()
        for t in (*range(q1), *spot_positions(N)):
            if values[t] != mul(exp[self.e * t % N], self.table[t % q1]):
                raise ArithmeticError(
                    f"log-order value table disagrees with the map at gamma^{t}")
        return LogTable(ctx, values)

    def __call__(self, x: Felt) -> Felt:
        require_field(self.ctx, x)
        return Felt(self.ctx, self.eval_packed(x.val))


class LogTable:
    """A map's packed values at gamma^0, ..., gamma^(q^2-2), indexed by the
    discrete log, with 0 -> 0 (CosetMap.log_table).  eval_range gathers a
    range of packed points through the log table in C."""

    __slots__ = ("ctx", "values")

    def __init__(self, ctx: FieldCtx, values: list[int]):
        self.ctx = ctx
        self.values = values

    def eval_range(self, start: int, stop: int) -> list[int]:
        """Packed values at the packed points start, ..., stop-1."""
        logs = self.ctx._log[max(start, 1):stop]
        # itemgetter of one index returns the item, not a tuple
        out = (list(itemgetter(*logs)(self.values)) if len(logs) > 1
               else [self.values[t] for t in logs])
        if start == 0 < stop:  # log 0 is undefined; 0 -> 0
            out.insert(0, 0)
        return out


def _eval_terms(f: Poly, xv: int) -> int:
    """f at the packed point xv, one Zech lookup per term; O(terms)."""
    if xv == 0:
        c0 = f.terms.get(0)
        return c0.val if c0 else 0
    log = f.ctx._log
    lx = log[xv]
    return f.ctx.sum_powers([log[c.val] + e * lx for e, c in f.terms.items()])


def poly_eval(f: Poly, x: Felt) -> Felt:
    """f(x), exact.

    A coset-shaped f goes through its CosetMap, built on the first call
    (O(q * terms)) and cached on f; each point then costs
    O(1).  Any other f runs the term sum, O(terms) per point.
    """
    if x.ctx is not f.ctx:
        raise ValueError("elements from different fields")
    cm = f._coset
    if cm is None:
        cm = f._coset = CosetMap.from_poly(f) or False
    return Felt(f.ctx, cm.eval_packed(x.val) if cm else _eval_terms(f, x.val))


def reduce_functional(f: Poly) -> Poly:
    """Reduce exponents so the evaluation map on F_{q^2} is unchanged.

    The constant term is kept; every exponent e > 0 is replaced by
    ((e - 1) mod (q^2 - 1)) + 1, which lies in [1, q^2 - 1].  Keeping
    positive exponents positive preserves f(0).  Coefficients landing on
    the same exponent are summed.
    """
    N = f.ctx.units
    return Poly.from_terms(f.ctx, ((e if e == 0 else ((e - 1) % N) + 1, c)
                                   for e, c in f.terms.items()))


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
