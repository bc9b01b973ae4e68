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
per point.  poly_eval takes a Felt or a packed point, an int in
0..q^2-1, and returns the same kind.  The exhaustive loops read a map a
range of consecutive points at a time through eval_range: Poly.eval_range
calls poly_eval once per packed point, so no Felt is made per point, and
CosetMap.eval_range runs eval_packed's arithmetic in one comprehension.
A loop that reads every point of a CosetMap takes it in coset rows
instead, O(q) Python steps for all q+1: CosetMap.exp_rows
makes row s, the map's values on the coset gamma^s * F_q^*, as a strided
slice of the exp table in exponent order and checks it as it is made;
CosetMap.log_rows yields (points, row) for the loops that store each value
at its point: points = exp[s::q+1], and the checked row put in point order
by one itemgetter over CosetMap.spread, row[k] the value at points[k].
The oracle only marks which values occur, and the order inside a row
cannot change that, so it reads exp_rows once spread is a bijection.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .field_tower import Felt, FieldCtx, require_field, spot_positions


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
        poly_eval call per point on the packed int itself: no Felt is
        made for a point or its value."""
        return [poly_eval(self, xv) for xv in range(start, stop)]

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
    one comprehension, with the logs of T taken once per map; exp_rows and
    log_rows tabulate the map one coset row at a time, in exponent and in
    point order, for a loop that reads every point.
    """

    __slots__ = ("ctx", "e", "table", "_table_logs", "_inverse")

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
        self._inverse = None

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

    def _inverse_table(self) -> tuple[int, list[int]] | None:
        """(e', T') of the inverse map, or None when the map does not
        permute F_{q^2}: O(q), no point evaluated.  gamma^(s + (q+1)k) goes
        to gamma^(c_s + e(q+1)k), c_s = (e*s + log T[s]) mod (q^2-1), so the
        map permutes iff gcd(e, q-1) = 1, T has no 0 and sigma: s -> c_s
        mod (q+1), the map induced on mu_{q+1}, permutes 0..q
        (Akbary-Ghioca-Wang).  The inverse has e' = e^-1 mod (q-1) and
        T'[sigma(s)] = gamma^(s - e'*c_s); the loop stops at the first
        sigma value whose slot of T' is already filled.
        """
        ctx, e, logs = self.ctx, self.e, self._table_logs
        q1, N, exp = ctx.q + 1, ctx.units, ctx._exp
        if math.gcd(e, ctx.q - 1) != 1 or None in logs:
            return None
        ei, table = pow(e, -1, ctx.q - 1), [0] * q1
        for s, lt in enumerate(logs):
            c = (e * s + lt) % N
            j = c % q1
            if table[j]:
                return None
            table[j] = exp[(s - ei * c) % N]
        return ei, table

    def inverse(self) -> "CosetMap | None":
        """The inverse map, or None when the map does not permute F_{q^2}."""
        return CosetMap(self.ctx, *self._inverse) if self.permutes() else None

    def permutes(self) -> bool:
        """Does the map permute F_{q^2}?  Exactly when _inverse_table finds
        an inverse; its result is kept in _inverse (False for None), so sigma
        is computed once per map and no inverse map is built."""
        if self._inverse is None:
            self._inverse = self._inverse_table() or False
        return self._inverse is not False

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

    def spread(self) -> list[int]:
        """e*k mod (q-1) for k = 0..q-2: the value at gamma^(s + (q+1)k)
        is row[spread[k]] of exp_rows' row s.  One list for every row."""
        qm = self.ctx.q - 1
        return [self.e * k % qm for k in range(qm)]

    def _raw_rows(self) -> Iterator[tuple[int, list[int]]]:
        """exp_rows unchecked.

        gamma^(s + (q+1)k) goes to gamma^(c_s + (q+1)(e*k mod (q-1))) with
        c_s = (e*s + log T[s]) mod (q^2-1), so row s in exponent order is
        the slice of exp with stride q+1 from c_s, wrapped round.  A zero
        entry of T gives a zero row.  O(1) Python steps and about 2*q
        element copies in C per row.  The slice is one of exp's coset rows,
        whose q - 1 ints FieldCtx made together, so the copies read
        contiguous memory, not one cache line per int.
        """
        ctx = self.ctx
        e, q1, N, exp = self.e, ctx.q + 1, ctx.units, ctx._exp
        zero = [0] * (ctx.q - 1)
        for s, lt in enumerate(self._table_logs):
            if lt is None:
                yield s, zero
            else:
                c = (e * s + lt) % N
                yield s, exp[c::q1] + exp[c % q1:c:q1]

    def exp_rows(self) -> Iterator[tuple[int, list[int]]]:
        """The map on F_{q^2}^*, one coset row at a time in exponent order:
        (s, row) for s = 0..q, with the value at gamma^(s + (q+1)k),
        k = 0..q-2, at row[e*k mod (q-1)] (spread).  Row s holds the values
        of the coset gamma^s * F_q^*, not in its points' order.

        Each row is checked as it is made, in O(1) steps: at its coset
        representative gamma^s and at the spot_positions(q^2-1) logs that
        fall in it, the value must equal gamma^(e*t) * T[t mod (q+1)] by
        mul_packed; a mismatch raises ArithmeticError.
        """
        ctx = self.ctx
        e, q1, qm, N = self.e, ctx.q + 1, ctx.q - 1, ctx.units
        exp, mul = ctx._exp, ctx.mul_packed
        spots: dict[int, list[int]] = {}
        for t in spot_positions(N):
            spots.setdefault(t % q1, []).append(t)
        for s, row in self._raw_rows():
            for t in (s, *spots.get(s, ())):
                if row[e * ((t - s) // q1) % qm] != mul(exp[e * t % N],
                                                        self.table[s]):
                    raise ArithmeticError(
                        f"log-order value table disagrees with the map at gamma^{t}")
            yield s, row

    def log_rows(self) -> Iterator[tuple[list[int], tuple[int, ...]]]:
        """exp_rows in point order: (points, row) for s = 0..q, points =
        exp[s::q+1], the packed gamma^(s + (q+1)k) for k = 0..q-2, and row[k]
        the value at points[k], each checked row of exp_rows rearranged by
        one itemgetter over spread, in C."""
        exp, q1 = self.ctx._exp, self.ctx.q + 1
        spread = itemgetter(*self.spread())
        for s, row in self.exp_rows():
            yield exp[s::q1], spread(row)

    def __call__(self, x: Felt) -> Felt:
        require_field(self.ctx, x)
        return Felt(self.ctx, self.eval_packed(x.val))


def _eval_terms(f: Poly, xv: int) -> int:
    """f at the packed point xv, one Zech lookup per term; O(terms)."""
    if xv == 0:
        c0 = f.terms.get(0)
        return c0.val if c0 else 0
    log = f.ctx._log
    lx = log[xv]
    return f.ctx.sum_powers([log[c.val] + e * lx for e, c in f.terms.items()])


def poly_eval(f: Poly, x: "Felt | int") -> "Felt | int":
    """f(x), exact, of the kind x is: a Felt of f's field gives a Felt, a
    packed point, an int in 0..q^2-1, gives the packed value, so a loop
    over packed points makes no Felt; any other int is refused with a
    ValueError that names the range.

    A coset-shaped f goes through its CosetMap, built on the first call
    (O(q * terms)) and cached on f; each point then costs
    O(1).  Any other f runs the term sum, O(terms) per point.
    """
    ctx = f.ctx
    if packed := not isinstance(x, Felt):
        if not 0 <= x < ctx.q2:
            raise ValueError(f"a packed point is an int in 0..{ctx.q2 - 1}, "
                             f"not {x}")
    elif x.ctx is not ctx:
        raise ValueError("elements from different fields")
    xv = x if packed else x.val
    cm = f._coset
    if cm is None:
        cm = f._coset = CosetMap.from_poly(f) or False
    v = cm.eval_packed(xv) if cm else _eval_terms(f, xv)
    return v if packed else Felt(ctx, v)


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
