"""Building permutation polynomials of F_{q^2} from (G_n, H_n) and certifying them.

The shape is P(x) = x^(n+m(q+1)) * F(x^(q-1), alpha) with F either H_n
(variant "H") or G_n (variant "G") and alpha in mu_{q+1}.  Writing
s for a square root of alpha, P permutes F_{q^2} exactly when

    s in mu_{q+1}:      gcd(n(n+2m), q-1) = 1,
    s not in mu_{q+1}:  gcd(n+2m, q-1) = 1 and gcd(n, q+1) = 1,

and the case split does not depend on which root s is chosen.  The module
decides these criteria, builds the polynomial in reduced coefficient form
together with an O(1)-per-point CosetMap evaluator, and provides the
ground-truth exhaustive bijectivity oracle, so the criteria are never
trusted blindly, and the scan behind the table inverse.  The evaluator's
q+1 coset values F(zeta^i, alpha) come from the closed form
(x +- sqrt(alpha))^n, not from powering x + S modulo S^2 - alpha, which
only spot-checks them (redei.gh_table).

Every exhaustive loop reads f in packed order, a range of consecutive
points at a time (f.eval_range), with one exception: a CosetMap is read
one checked coset row at a time by the oracle and the scan when the map
passes CosetMap.permutes (_in_log_order).  The scan stores each value's
point, so it reads (points, row) pairs in point order (CosetMap.log_rows).
The oracle only marks which values occur, which no order inside a row can
change, so it reads them in exponent order (CosetMap.exp_rows), with no
rearrangement, once the row order k -> e*k mod (q-1) is a bijection.
After a repeated value in the rows, and for every other map, they run the
packed-order loop, which stops at the first collision.  The oracle keeps
one byte per value; only the scan, behind the table inverse, keeps
preimages, in a q^2-entry unsigned array (_packed_table).  That array is
the one layout of a whole map: inverse.packed_table lays any map out in
it for the value digest and the composition check.  make_field bounds
these loops.

F's two cross-checked builds, the gh_coeffs pair behind the coefficient
form and the q+1 gh_table values behind the coset table, depend on (n,
alpha) and on the variant alone, not on m, so each is memoised per
process (_redei_pair, _factor_values: functools.lru_cache, MEMO_SIZE
entries each, least recently used evicted).  The key holds alpha itself,
whose equality includes its field, so specs that differ only in m share
an entry and two fields never do.  An entry's cross-checks ran when it
was built; a hit repeats none of them, while the oracle still runs in
full for every spec.  Two threads that miss on one key at once both
build it, and the entries are equal.

Also here: the generic multiplicative-coset criterion (x^r f(x^(q-1))
permutes F_{q^2} iff gcd(r, q-1) = 1 and x^r f(x)^(q-1) permutes mu_{q+1}),
the binomial (n=3) and trinomial (n=5) families with their published
coprimality conditions, all read from one table, and the density count of
admissible n.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import Iterator, NamedTuple

from .field_tower import Felt, FieldCtx, find_item, require_field
from .polyring import CosetMap, Poly, poly_eval, reduce_functional
from .redei import RedeiPair, gh_coeffs, gh_table

CASE_IN = "sqrt_in_mu"
CASE_OUT = "sqrt_not_in_mu"


class _PermSpecFields(NamedTuple):
    variant: str
    n: int
    m: int
    alpha: Felt


class PermSpec(_PermSpecFields):
    """A construction request: variant H or G, exponent data n and m, alpha."""
    __slots__ = ()

    def __new__(cls, variant: str, n: int, m: int, alpha: Felt):
        if variant not in ("H", "G"):
            raise ValueError("variant must be 'H' or 'G'")
        if n < 1:
            raise ValueError("n must be a positive integer")
        if not alpha.in_mu(alpha.ctx.q + 1):
            raise ValueError("alpha must lie in mu_{q+1}")
        return super().__new__(cls, variant, n, m, alpha)

    @classmethod
    def _make(cls, iterable) -> PermSpec:
        return cls(*iterable)  # so that _replace validates too

    @property
    def ctx(self) -> FieldCtx:
        return self.alpha.ctx

    @property
    def r(self) -> int:
        """The outer exponent n + m(q+1), not normalised."""
        return self.n + self.m * (self.ctx.q + 1)

    @property
    def gh_index(self) -> int:
        """Position of F in the pair (G_n, H_n): 1 for variant H, 0 for G."""
        return int(self.variant == "H")

    def to_record(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha.to_coeffs(),
        }


class Condition(NamedTuple):
    name: str
    value: int
    passed: bool

    def to_record(self) -> dict:
        return {"name": self.name, "gcd": self.value, "passed": self.passed}


class PermVerdict(NamedTuple):
    is_perm: bool
    case: str
    conditions: tuple[Condition, ...]

    @property
    def failure(self) -> str:
        """Why the spec is refused as a permutation, naming the failing gcds."""
        failed = [c.name for c in self.conditions if not c.passed]
        return f"not a permutation; failing conditions: {failed}"

    def to_record(self) -> dict:
        return {
            "is_perm": self.is_perm,
            "case": self.case,
            "conditions": [c.to_record() for c in self.conditions],
        }


def sqrt_case(alpha: Felt) -> str:
    """Which criterion case applies: is a square root of alpha in mu_{q+1}?

    alpha in mu_{q+1} always has square roots (its discrete log is a
    multiple of the even number q-1), and membership of the root in
    mu_{q+1} does not depend on the sign since (-s)^(q+1) = s^(q+1)
    for odd q.
    """
    ctx = alpha.ctx
    roots = ctx.sqrt(alpha)
    if not roots:
        raise ArithmeticError("element of mu_{q+1} without a square root")
    return CASE_IN if roots[0].in_mu(ctx.q + 1) else CASE_OUT


def check_criterion(spec: PermSpec) -> PermVerdict:
    """Decide the permutation property from the coprimality conditions.

    The same conditions govern both variants.  Even n can be submitted;
    it fails through gcd(n(n+2m), q-1) resp. gcd(n+2m, q-1) being even,
    with no special-casing.
    """
    ctx = spec.ctx
    q = ctx.q
    n, m = spec.n, spec.m
    case = sqrt_case(spec.alpha)
    if case == CASE_IN:
        v = math.gcd(n * (n + 2 * m), q - 1)
        conditions = (Condition("gcd(n(n+2m), q-1)", v, v == 1),)
    else:
        v1 = math.gcd(n + 2 * m, q - 1)
        v2 = math.gcd(n, q + 1)
        conditions = (
            Condition("gcd(n+2m, q-1)", v1, v1 == 1),
            Condition("gcd(n, q+1)", v2, v2 == 1),
        )
    return PermVerdict(all(c.passed for c in conditions), case, conditions)


# Entries of each of the two memos of F below: sweeping n <= 15 over a
# few fields and two alphas each takes a few hundred.  An entry of
# _factor_values is a tuple of q+1 pointers, about 8 KB at q = 1021: its
# ints are the objects of the field's exp list, which the closed form reads
# them from.  An entry keeps alpha's field alive, as make_field's own
# cache does.
MEMO_SIZE = 512


@lru_cache(maxsize=MEMO_SIZE)
def _redei_pair(n: int, alpha: Felt) -> RedeiPair:
    """gh_coeffs(n, alpha), built and cross-checked once per key."""
    return gh_coeffs(n, alpha)


@lru_cache(maxsize=MEMO_SIZE)
def _factor_values(n: int, alpha: Felt, pick: int) -> tuple[int, ...]:
    """gh_table's G_n (pick 0) or H_n (pick 1) at zeta^i, i = 0..q, built
    and spot-checked once per key."""
    ctx = alpha.ctx  # zeta^i = gamma^((q-1)i), i = 0..q, is exp[::q-1]
    return tuple(gh_table(ctx, n, alpha.val, pick, ctx._exp[::ctx.q - 1]))


def coset_factor_table(spec: PermSpec) -> list[int]:
    """Packed values of F(zeta^i, alpha) for i = 0..q, F = H_n or G_n, as a
    new list.

    Built by the closed form (x +- sqrt(alpha))^n and spot-checked against
    pair powering (redei.gh_table) the first time (n, alpha, variant) is
    asked for; later calls copy the memoised values (_factor_values, at
    most MEMO_SIZE keys, keyed on alpha with its field, so never on m).
    """
    return list(_factor_values(spec.n, spec.alpha, spec.gh_index))


def perm_coset_map(spec: PermSpec) -> CosetMap:
    """The fast point evaluator of P alone: x -> x^r * F(x^(q-1), alpha)
    through the coset table, with no coefficient form (so no gh_coeffs
    degree cap)."""
    return CosetMap(spec.ctx, spec.r % spec.ctx.units, coset_factor_table(spec))


def perm_factor(spec: PermSpec) -> Poly:
    """F's coefficient form, H_n (variant H) or G_n (variant G), from one
    gh_coeffs call per (n, alpha): the pair, cross-checked when it was
    built, is memoised (_redei_pair, at most MEMO_SIZE keys, keyed on
    alpha with its field), so every m and both variants share it."""
    pair = _redei_pair(spec.n, spec.alpha)
    return (pair.g, pair.h)[spec.gh_index]


def perm_terms(spec: PermSpec) -> list[tuple[int, Felt]]:
    """The terms of x^r * F(x^(q-1)), F = perm_factor(spec), unreduced: each
    term c*x^e of F gives (r + (q-1)e, c), r not normalised, highest first."""
    f, qm = perm_factor(spec), spec.ctx.q - 1
    return [(spec.r + qm * e, f.terms[e]) for e in sorted(f.terms, reverse=True)]


def perm_poly(spec: PermSpec) -> Poly:
    """x^r * F(x^(q-1)) reduced: each exponent e of perm_terms goes to
    ((e - 1) mod (q^2-1)) + 1, as reduce_functional sends a positive one,
    so P(0) = 0 whatever the sign of r."""
    N = spec.ctx.units
    return Poly.from_terms(spec.ctx, (((e - 1) % N + 1, c)
                                      for e, c in perm_terms(spec)))


def build_perm_poly(spec: PermSpec) -> tuple[Poly, CosetMap]:
    """(perm_poly, perm_coset_map): the reduced coefficient polynomial and a
    fast point evaluator, built by independent paths that agree pointwise."""
    return perm_poly(spec), perm_coset_map(spec)


# The first range has RANGE_START points, each later one as many as all
# before it, up to RANGE_CAP: a scan that stops at point b has evaluated at
# most max(2b, RANGE_START) points.
RANGE_START = 64
RANGE_CAP = 1 << 14


def _ranges(q2: int) -> Iterator[tuple[int, int]]:
    start = 0
    while start < q2:
        stop = min(q2, start + min(max(start, RANGE_START), RANGE_CAP))
        yield start, stop
        start = stop


def _packed_table(q2: int, fill: int) -> array:
    """q^2 entries of fill, in the narrowest unsigned array item that holds
    q^2 (chosen by itemsize: 'I' below 2^32): the one container of a
    packed-order value table (inverse.packed_table), whose bytes are
    hashed as they are."""
    code = next(c for c in "IQ" if q2 < 1 << 8 * array(c).itemsize)
    return array(code, [fill]) * q2


def _packed_scan(q2: int, f) -> tuple:
    """scan's result from f's values in packed order."""
    first = _packed_table(q2, q2)
    for start, stop in _ranges(q2):
        for xv, v in enumerate(f.eval_range(start, stop), start):
            if first[v] != q2:
                return first, (first[v], xv, v)
            first[v] = xv
    return first, None


def _in_log_order(f) -> bool:
    """Is f read from its coset rows (CosetMap.log_rows)?  Only a CosetMap
    that passes CosetMap.permutes is; every other map is read in packed
    order with an early exit."""
    return isinstance(f, CosetMap) and f.permutes()


def scan(ctx: FieldCtx, f) -> tuple[array, tuple[int, int, int] | None]:
    """Evaluate f at the packed points 0, 1, ..., q^2-1 in order; this is
    the table inverse, the one loop that needs the preimages.

    Returns (inverse table, None) for a bijection.  At the first collision
    it stops and returns (partial table, (a, b, v)): packed inputs a < b
    both map to v, and no point after b enters the table.  The table is a
    _packed_table, and a value with no preimage yet holds q^2, which is no
    packed value.  Values come a range at a time, so f may have been
    evaluated past b, to the end of b's range.  A map that _in_log_order
    picks is read one checked coset row at a time in point order
    (CosetMap.log_rows' (points, row) pairs): each value's point is stored
    with no per-point test, and a slot left at q^2 (find_item, from the
    array's bytes) then means a repeated value, so the packed-order loop
    runs over the map itself.  Every other map runs that loop alone.
    """
    require_field(ctx, f)
    q2 = ctx.q2
    if not _in_log_order(f):
        return _packed_scan(q2, f)
    first = _packed_table(q2, q2)
    first[0] = 0
    for points, row in f.log_rows():
        for x, v in zip(points, row):
            first[v] = x
    if find_item(first, q2) >= 0:
        return _packed_scan(q2, f)
    return first, None


def is_permutation_bruteforce(
        ctx: FieldCtx, f) -> tuple[bool, tuple[Felt, Felt] | None]:
    """Evaluate f on all of F_{q^2}; (True, None) or (False, colliding pair).

    f may be a CosetMap, an InverseTable or a Poly: any map with eval_range.
    The verdict needs no preimages: a map that _in_log_order picks is read
    one checked coset row at a time in exponent order (CosetMap.exp_rows),
    each value marked in one byte of a q^2-byte array with slot 0 set
    (0 -> 0) as its row is made, and a slot left unmarked means a repeat.
    No list of the map's q^2-1 values is built, and no row is put in point
    order: the verdict depends only on which values occur, and log_rows'
    row s is exp_rows' row s read through k -> e*k mod (q-1)
    (CosetMap.spread), so when that is a bijection, checked first from
    spread itself and not from the AGW test, the two hold the same values.
    That map permutes by the AGW test, so the pass makes no per-point test
    and has no early exit.  A spread that is no bijection, a repeat, or
    any other map runs scan's packed-order loop over f for the first
    collision a < b.
    """
    require_field(ctx, f)
    if _in_log_order(f) and len(set(spread := f.spread())) == len(spread):
        seen = bytearray(ctx.q2)
        seen[0] = 1
        for _, row in f.exp_rows():
            for v in row:
                seen[v] = 1
        if 0 not in seen:
            return True, None
    _, collision = _packed_scan(ctx.q2, f)
    if collision is None:
        return True, None
    return False, (Felt(ctx, collision[0]), Felt(ctx, collision[1]))


def cyclotomic_criterion(ctx: FieldCtx, r: int, f: Poly) -> bool:
    """Does x^r * f(x^(q-1)) permute F_{q^2}?

    True iff gcd(r, q-1) = 1 and b -> b^r * f(b)^(q-1) permutes mu_{q+1}
    (CosetMap.permutes).  A zero of f on mu_{q+1} sends the whole coset
    above b to 0 and the map value out of mu_{q+1}, so permuting (not
    merely being injective on) mu_{q+1} is the decisive property.  f is
    read at the packed zeta^i = gamma^((q-1)i), i = 0..q, exp[::q-1].
    """
    require_field(ctx, f)
    table = [poly_eval(f, v) for v in ctx._exp[::ctx.q - 1]]
    return CosetMap(ctx, r, table).permutes()


# ---------------------------------------------------------------------------
# The n=3 binomial and n=5 trinomial families, keyed by (degree, variant):
# the theorem variant each instantiates (P1 is G-shaped, P2 is H-shaped) and
# its terms as rows (a, b, c, j), meaning c * alpha^j * x^(m(q+1) + a*q + b).
# The rows are copied from the printed forms (family_poly), not derived from
# G_n and H_n, so comparing family_poly with build_perm_poly checks two paths.
FAMILIES = {
    (3, "P1"): ("G", ((3, 0, 1, 0), (1, 2, 3, 1))),
    (3, "P2"): ("H", ((2, 1, 3, 0), (0, 3, 1, 1))),
    (5, "P1"): ("G", ((5, 0, 1, 0), (3, 2, 10, 1), (1, 4, 5, 2))),
    (5, "P2"): ("H", ((4, 1, 5, 0), (2, 3, 10, 1), (0, 5, 1, 2))),
}


def _family(degree: int, variant: str = "P1") -> tuple:
    """FAMILIES[degree, variant]; ValueError outside the table."""
    if (degree, variant) not in FAMILIES:
        raise ValueError(f"no published family ({degree!r}, {variant!r}); "
                         f"the table holds {sorted(FAMILIES)}")
    return FAMILIES[degree, variant]


def _require_degree_prime_to(q: int, degree: int) -> None:
    """ValueError when the degree divides q: the coefficient equal to the
    degree vanishes there and the family degenerates."""
    if q % degree == 0:
        raise ValueError(f"the degree-{degree} family needs the characteristic "
                         f"prime to {degree}")


def family_poly(ctx: FieldCtx, degree: int, variant: str, m: int, l: int) -> Poly:
    """The family member FAMILIES[degree, variant] at m, reduced.

    Degree 3 (binomials):
    P1 = x^(m(q+1)+3q) + 3*alpha*x^(m(q+1)+q+2)
    P2 = 3*x^(m(q+1)+2q+1) + alpha*x^(m(q+1)+3)
    Degree 5 (trinomials):
    P1 = x^(m(q+1)+5q) + 10*alpha*x^(m(q+1)+3q+2) + 5*alpha^2*x^(m(q+1)+q+4)
    P2 = 5*x^(m(q+1)+4q+1) + 10*alpha*x^(m(q+1)+2q+3) + alpha^2*x^(m(q+1)+5)

    with alpha = gamma^(l(q-1)).  Requires the degree (3 or 5) not to divide q,
    otherwise the coefficient equal to the degree vanishes and the shape
    degenerates.  Any m is allowed: the exponents are only defined mod q^2-1.
    """
    _, rows = _family(degree, variant)
    _require_degree_prime_to(ctx.q, degree)
    q, alpha = ctx.q, ctx.alpha_from_l(l)
    base = m * (q + 1) % ctx.units  # keeps every exponent positive
    return reduce_functional(Poly.from_terms(
        ctx, ((base + a * q + b, c * alpha ** j) for a, b, c, j in rows)))


def family_spec(ctx: FieldCtx, degree: int, variant: str, m: int, l: int) -> PermSpec:
    """The (variant, n, m, alpha) request matching a family member."""
    theorem_variant, _ = _family(degree, variant)
    return PermSpec(theorem_variant, degree, m, ctx.alpha_from_l(l))


def family_condition(q: int, degree: int, m: int, l: int) -> bool:
    """Published permutation condition of the family of this degree, any m.

    Refused, like family_poly, when the degree divides q.
    """
    _family(degree)
    _require_degree_prime_to(q, degree)
    if l % 2 == 0:
        return math.gcd(degree * (2 * m + degree), q - 1) == 1
    return (math.gcd(2 * m + degree, q - 1) == 1
            and math.gcd(degree, q + 1) == 1)


def family_special_condition(q: int, degree: int, m: int, l: int) -> bool:
    """Congruence form of the family condition at the special m values.

    Degree 3:
    m = q-3 and m = q-2: q != 1 mod 3 for even l, q != -1 mod 3 for odd l.
    m = 1: additionally q != 1 mod 5 in both parities.
    m = 0: q != 1 mod 3 for even l; never a permutation for odd l, since
    3 divides one of q-1 and q+1 whenever it does not divide q.

    Degree 5:
    m = q-4 and m = q-3: q != 1 mod 5 for even l, q != 4 mod 5 for odd l.
    m = 1: additionally q != 1 mod 7 in both parities.
    m = 0: q != 1 mod 5 for even l, q != 1 and q != 4 mod 5 for odd l.

    The shifted m values are those with 2m + d = +-1 mod q-1 for the
    degree d; any other m raises ValueError, and so does a q divisible by
    the degree (as in family_poly).
    """
    _family(degree)
    _require_degree_prime_to(q, degree)
    bad = 1 if l % 2 == 0 else degree - 1  # q = bad mod d puts d in the gcd
    if m in (q - (degree + 3) // 2, q - (degree + 1) // 2):
        return q % degree != bad
    if m == 1:
        return q % degree != bad and q % (degree + 2) != 1
    if m == 0:
        if l % 2 and degree == 3:
            return False
        return q % degree not in (1, bad)
    raise ValueError(f"no specialised condition recorded for m={m}")


def count_valid_n(q: int, m: int) -> int:
    """How many n in [1, q-1] satisfy gcd(n(n+2m), q-1) = 1."""
    return sum(1 for n in range(1, q)
               if math.gcd(n * (n + 2 * m), q - 1) == 1)
