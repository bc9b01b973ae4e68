"""Building permutation polynomials of F_{q^2} from (G_n, H_n) and certifying them.

The shape is P(x) = x^(n+m(q+1)) * F(x^(q-1), alpha) with F either H_n
(variant "H") or G_n (variant "G") and alpha in mu_{q+1}.  Writing
s for a square root of alpha, P permutes F_{q^2} exactly when

    s in mu_{q+1}:      gcd(n(n+2m), q-1) = 1,
    s not in mu_{q+1}:  gcd(n+2m, q-1) = 1 and gcd(n, q+1) = 1,

and the case split does not depend on which root s is chosen.  The module
decides these criteria, builds the polynomial in reduced coefficient form
together with an O(1)-per-point CosetMap evaluator, and provides the
ground-truth exhaustive bijectivity oracle so the criteria are never
trusted blindly; its scan doubles as the table inverse.

Also here: the generic multiplicative-coset criterion (x^r f(x^(q-1))
permutes F_{q^2} iff gcd(r, q-1) = 1 and x^r f(x)^(q-1) permutes mu_{q+1}),
a table-level bijectivity-transfer utility for commutative squares of finite
maps, the binomial (n=3) and trinomial (n=5) families with their published
coprimality conditions specialised to small m, and the density count of
admissible n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .field_tower import Felt, FieldCtx, check_size_bound
from .polyring import Poly, poly_compose, poly_eval, reduce_functional
from .redei import _gh_eval_packed, gh_coeffs

CASE_IN = "sqrt_in_mu"
CASE_OUT = "sqrt_not_in_mu"


@dataclass(frozen=True)
class PermSpec:
    """A construction request: variant H or G, exponent data n and m, alpha."""
    variant: str
    n: int
    m: int
    alpha: Felt

    def __post_init__(self):
        if self.variant not in ("H", "G"):
            raise ValueError("variant must be 'H' or 'G'")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not self.alpha.in_mu(self.alpha.ctx.q + 1):
            raise ValueError("alpha must lie in mu_{q+1}")

    @property
    def ctx(self) -> FieldCtx:
        return self.alpha.ctx

    @property
    def r(self) -> int:
        """The outer exponent n + m(q+1), not normalised."""
        return self.n + self.m * (self.ctx.q + 1)

    def to_record(self) -> dict:
        return {
            "variant": self.variant,
            "n": self.n,
            "m": self.m,
            "alpha": self.alpha.to_coeffs(),
        }


@dataclass(frozen=True)
class Condition:
    name: str
    value: int
    passed: bool

    def to_record(self) -> dict:
        return {"name": self.name, "gcd": self.value, "passed": self.passed}


@dataclass(frozen=True)
class PermVerdict:
    is_perm: bool
    case: str
    conditions: tuple[Condition, ...]

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


class CosetMap:
    """O(1)-per-point evaluator for x -> x^e * T[log x mod (q+1)], 0 -> 0.

    Every map built or inverted here has the shape x^e * F(x^(q-1)): the
    factor only depends on the coset of x modulo the (q-1)-th powers, so its
    q+1 packed values T are tabulated once; each evaluation is then a
    discrete log, a table pick and one multiplication.  A zero entry of T
    sends its whole coset to 0.
    """

    __slots__ = ("ctx", "e", "table")

    def __init__(self, ctx: FieldCtx, e: int, table: list[int]):
        self.ctx = ctx
        self.e = e
        self.table = table

    def eval_packed(self, xv: int) -> int:
        if xv == 0:
            return 0
        ctx = self.ctx
        t = ctx._log[xv]
        fv = self.table[t % (ctx.q + 1)]
        if fv == 0:
            return 0
        return ctx._exp[(self.e * t + ctx._log[fv]) % ctx.units]

    def __call__(self, x: Felt) -> Felt:
        return Felt(self.ctx, self.eval_packed(x.val))


def coset_factor_table(spec: PermSpec) -> list[int]:
    """Packed values of F(zeta^i, alpha) for i = 0..q, F = H_n or G_n."""
    ctx = spec.ctx
    zl = ctx.q - 1  # discrete log of zeta
    av = spec.alpha.val
    pick = 1 if spec.variant == "H" else 0
    out = []
    for i in range(ctx.q + 1):
        gv_hv = _gh_eval_packed(ctx, spec.n, av, ctx._exp[(zl * i) % ctx.units])
        out.append(gv_hv[pick])
    return out


def build_perm_poly(spec: PermSpec) -> tuple[Poly, CosetMap]:
    """The reduced coefficient polynomial and a fast point evaluator.

    The coefficient form substitutes x^(q-1) into the coefficient
    polynomials and multiplies by x^r with r normalised into [1, q^2-1];
    the evaluator computes the same map through the coset table.  The two
    agree pointwise (they are built from independent paths).
    """
    ctx = spec.ctx
    N = ctx.units
    r_norm = ((spec.r - 1) % N) + 1
    pair = gh_coeffs(spec.n, spec.alpha)
    f = pair.h if spec.variant == "H" else pair.g
    inner = poly_compose(f, Poly.monomial(ctx, ctx.q - 1))
    poly = reduce_functional(inner.shift(r_norm))
    return poly, CosetMap(ctx, spec.r % N, coset_factor_table(spec))


def packed_fn(ctx: FieldCtx, f) -> Callable[[int], int]:
    """f on packed values; f has eval_packed, is a Poly or maps Felt -> Felt."""
    if hasattr(f, "eval_packed"):
        return f.eval_packed
    if isinstance(f, Poly):
        return lambda xv: poly_eval(f, Felt(ctx, xv)).val
    return lambda xv: f(Felt(ctx, xv)).val


def scan(ctx: FieldCtx, f, size_bound: int | None = None
         ) -> tuple[list[int], tuple[int, int, int] | None]:
    """Evaluate f at the packed points 0, 1, ..., q^2-1 in order.

    Returns (inverse table, None) for a bijection.  At the first collision
    it stops and returns (partial table, (a, b, v)): packed inputs a < b
    both map to v, and b is the last point evaluated.
    """
    check_size_bound(ctx.q2, size_bound)
    fn = packed_fn(ctx, f)
    first = [-1] * ctx.q2
    for xv in range(ctx.q2):
        v = fn(xv)
        if first[v] >= 0:
            return first, (first[v], xv, v)
        first[v] = xv
    return first, None


def is_permutation_bruteforce(
        ctx: FieldCtx, f, size_bound: int | None = None
) -> tuple[bool, tuple[Felt, Felt] | None]:
    """Evaluate f on all of F_{q^2}; (True, None) or (False, colliding pair).

    f may be a CosetMap, a Poly, or any callable Felt -> Felt.
    """
    _, collision = scan(ctx, f, size_bound)
    if collision is None:
        return True, None
    return False, (Felt(ctx, collision[0]), Felt(ctx, collision[1]))


def cyclotomic_criterion(ctx: FieldCtx, r: int, f: Poly) -> bool:
    """Does x^r * f(x^(q-1)) permute F_{q^2}?

    True iff gcd(r, q-1) = 1 and b -> b^r * f(b)^(q-1) permutes mu_{q+1}.
    A zero of f on mu_{q+1} sends the whole coset above b to 0 and the map
    value out of mu_{q+1}, so permuting (not merely being injective on)
    mu_{q+1} is the decisive property.
    """
    q = ctx.q
    if math.gcd(r, q - 1) != 1:
        return False
    seen = set()
    for b in ctx.mu(q + 1):
        v = (b ** r) * (poly_eval(f, b) ** (q - 1))
        if v.val == 0:
            return False
        seen.add(v.val)
    return len(seen) == q + 1


def transfer_bijectivity(f: dict, lam: dict, lam_bar: dict, g_bar: dict) -> bool:
    """Bijectivity of f: A -> A decided through a commutative square of tables.

    lam: A -> S and lam_bar: A -> S' must be surjective with |S| = |S'|,
    g_bar: S -> S' must satisfy lam_bar(f(a)) = g_bar(lam(a)) on all of A.
    Then f is bijective iff g_bar is bijective and f is injective on every
    fiber lam^{-1}(s).  Preconditions are validated and raise ValueError.
    """
    dom = set(f)
    if set(lam) != dom or set(lam_bar) != dom:
        raise ValueError("lam and lam_bar must be defined exactly on the domain of f")
    s_set = set(lam.values())
    sbar_set = set(lam_bar.values())
    if set(g_bar) != s_set:
        raise ValueError("g_bar must be defined exactly on the image of lam")
    if not set(g_bar.values()) <= sbar_set:
        raise ValueError("g_bar must map into the image of lam_bar")
    if len(s_set) != len(sbar_set):
        raise ValueError("the two quotient sets must have equal size")
    for a, fa in f.items():
        if fa not in dom:
            raise ValueError("f must map its domain into itself")
        if lam_bar[fa] != g_bar[lam[a]]:
            raise ValueError("the square does not commute")
    if len(set(g_bar.values())) != len(s_set):
        return False
    fibers: dict = {}
    for a, fa in f.items():
        fibers.setdefault(lam[a], set()).add(fa)
    counts: dict = {}
    for a in f:
        counts[lam[a]] = counts.get(lam[a], 0) + 1
    return all(len(fibers[s]) == counts[s] for s in fibers)


# ---------------------------------------------------------------------------
# The n=3 binomial and n=5 trinomial families.
# ---------------------------------------------------------------------------

def family_binomial(ctx: FieldCtx, variant: str, m: int, l: int) -> Poly:
    """The degree-3 family member, reduced; variant P1 is G-shaped, P2 is H-shaped.

    P1 = x^(m(q+1)+3q) + 3*alpha*x^(m(q+1)+q+2)
    P2 = 3*x^(m(q+1)+2q+1) + alpha*x^(m(q+1)+3)

    with alpha = gamma^(l(q-1)).  Requires 3 not dividing q, otherwise the
    coefficient 3 vanishes and the shape degenerates.
    """
    if ctx.p == 3:
        raise ValueError("the binomial family needs the characteristic prime to 3")
    q = ctx.q
    alpha = ctx.alpha_from_l(l)
    base = m * (q + 1)
    if variant == "P1":
        terms = [(base + 3 * q, ctx.one()), (base + q + 2, 3 * alpha)]
    elif variant == "P2":
        terms = [(base + 2 * q + 1, ctx.scalar(3)), (base + 3, alpha)]
    else:
        raise ValueError("variant must be 'P1' or 'P2'")
    _check_family_exponents(terms, ctx)
    return reduce_functional(Poly.from_terms(ctx, terms))


def family_trinomial(ctx: FieldCtx, variant: str, m: int, l: int) -> Poly:
    """The degree-5 family member, reduced; variant P1 is G-shaped, P2 is H-shaped.

    P1 = x^(m(q+1)+5q) + 10*alpha*x^(m(q+1)+3q+2) + 5*alpha^2*x^(m(q+1)+q+4)
    P2 = 5*x^(m(q+1)+4q+1) + 10*alpha*x^(m(q+1)+2q+3) + alpha^2*x^(m(q+1)+5)

    with alpha = gamma^(l(q-1)).  Requires 5 not dividing q.
    """
    if ctx.p == 5:
        raise ValueError("the trinomial family needs the characteristic prime to 5")
    q = ctx.q
    alpha = ctx.alpha_from_l(l)
    a2 = alpha * alpha
    base = m * (q + 1)
    if variant == "P1":
        terms = [(base + 5 * q, ctx.one()), (base + 3 * q + 2, 10 * alpha),
                 (base + q + 4, 5 * a2)]
    elif variant == "P2":
        terms = [(base + 4 * q + 1, ctx.scalar(5)), (base + 2 * q + 3, 10 * alpha),
                 (base + 5, a2)]
    else:
        raise ValueError("variant must be 'P1' or 'P2'")
    _check_family_exponents(terms, ctx)
    return reduce_functional(Poly.from_terms(ctx, terms))


def _check_family_exponents(terms: list, ctx: FieldCtx) -> None:
    # negative m is fine as long as every exponent stays positive before
    # reduction; shift the whole family by q^2-1 if it is not
    low = min(e for e, _ in terms)
    if low <= 0:
        shift = ((-low) // ctx.units + 1) * ctx.units
        for i, (e, c) in enumerate(terms):
            terms[i] = (e + shift, c)


def family_spec(ctx: FieldCtx, degree: int, variant: str, m: int, l: int) -> PermSpec:
    """The (variant, n, m, alpha) request matching a family member."""
    n = {3: 3, 5: 5}[degree]
    theorem_variant = "G" if variant == "P1" else "H"
    return PermSpec(theorem_variant, n, m, ctx.alpha_from_l(l))


def binomial_condition(q: int, m: int, l: int) -> bool:
    """Published permutation condition for the n=3 family, any m."""
    if l % 2 == 0:
        return math.gcd(3 * (2 * m + 3), q - 1) == 1
    return math.gcd(2 * m + 3, q - 1) == 1 and math.gcd(3, q + 1) == 1


def trinomial_condition(q: int, m: int, l: int) -> bool:
    """Published permutation condition for the n=5 family, any m."""
    if l % 2 == 0:
        return math.gcd(5 * (2 * m + 5), q - 1) == 1
    return math.gcd(2 * m + 5, q - 1) == 1 and math.gcd(5, q + 1) == 1


def binomial_special_condition(q: int, m: int, l: int) -> bool:
    """Congruence form of the n=3 condition at the special m values.

    m = q-3 and m = q-2: q != 1 mod 3 for even l, q != -1 mod 3 for odd l.
    m = 1: additionally q != 1 mod 5 in both parities.
    m = 0: q != 1 mod 3 for even l; never a permutation for odd l, since
    3 divides one of q-1 and q+1 whenever it does not divide q.
    """
    even = l % 2 == 0
    if m in (q - 3, q - 2):
        return q % 3 != 1 if even else q % 3 != 2
    if m == 1:
        if even:
            return q % 3 != 1 and q % 5 != 1
        return q % 3 != 2 and q % 5 != 1
    if m == 0:
        return q % 3 != 1 if even else False
    raise ValueError(f"no specialised condition recorded for m={m}")


def trinomial_special_condition(q: int, m: int, l: int) -> bool:
    """Congruence form of the n=5 condition at the special m values.

    m = q-4 and m = q-3: q != 1 mod 5 for even l, q != 4 mod 5 for odd l.
    m = 1: additionally q != 1 mod 7 in both parities.
    m = 0: q != 1 mod 5 for even l, q != 1 and q != 4 mod 5 for odd l.
    """
    even = l % 2 == 0
    if m in (q - 4, q - 3):
        return q % 5 != 1 if even else q % 5 != 4
    if m == 1:
        if even:
            return q % 5 != 1 and q % 7 != 1
        return q % 5 != 4 and q % 7 != 1
    if m == 0:
        return q % 5 != 1 if even else q % 5 not in (1, 4)
    raise ValueError(f"no specialised condition recorded for m={m}")


def count_valid_n(q: int, m: int, range_end: int) -> int:
    """How many n in [1, range_end] satisfy gcd(n(n+2m), q-1) = 1."""
    return sum(1 for n in range(1, range_end + 1)
               if math.gcd(n * (n + 2 * m), q - 1) == 1)
