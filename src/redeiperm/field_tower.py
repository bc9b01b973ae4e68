"""Exact arithmetic in F_{q^2}, the quadratic extension of F_q with q = p^k odd.

The tower F_p < F_q < F_{q^2} is realised as F_p[x] modulo a monic irreducible
polynomial of degree 2k.  Construction is deterministic: the modulus is the
lexicographically smallest monic irreducible of degree 2k (coefficient tuples
compared low degree first), and the primitive element gamma is the smallest
element, in the same ordering, whose multiplicative order is exactly q^2 - 1.

All q^2 - 1 powers of gamma are tabulated once at construction, so that
multiplication, inversion, powering and discrete logarithms are O(1) lookups;
addition goes through a Zech logarithm table (log of 1 + gamma^i).  The size
bound on q^2 keeps table construction cheap and guards every exhaustive
operation downstream.

On top of the tables the module provides the Frobenius x -> x^q, membership
in the subgroups mu_ell of ell-th roots of unity, square roots with a
canonical choice of sign, and the parametrisation alpha = gamma^(l(q-1)) of
mu_{q+1}.  F_q itself is not a separate type; it is the fixed field of the
Frobenius inside F_{q^2}.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

DEFAULT_SIZE_BOUND = 1 << 20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_field_params(p: int, k: int) -> None:
    """q = p^k needs an odd prime p and k >= 1."""
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p={p} is not an odd prime")
    if k < 1:
        raise ValueError("k must be a positive integer")


def check_size_bound(q2: int, size_bound: int | None = None) -> None:
    """Refuse a table or exhaustive scan over q2 points above the size bound."""
    bound = DEFAULT_SIZE_BOUND if size_bound is None else size_bound
    if q2 > bound:
        raise ValueError(f"q^2 = {q2} exceeds the size bound {bound}")


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Dense polynomial helpers over F_p, used only while building a field.
# Coefficient lists are low degree first and need not be trimmed.
# ---------------------------------------------------------------------------

def _trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _mulmod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """a*b reduced modulo the monic polynomial mod, over F_p."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    res[i + j] = (res[i + j] + ai * bj) % p
    dm = len(mod) - 1
    for i in range(len(res) - 1, dm - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(dm):
                if mod[j]:
                    res[i - dm + j] = (res[i - dm + j] - c * mod[j]) % p
    del res[dm:]
    return _trim(res)


def _powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    acc = _trim(list(base))
    while e:
        if e & 1:
            result = _mulmod(result, acc, mod, p)
        acc = _mulmod(acc, acc, mod, p)
        e >>= 1
    return result


def _gcd_fp(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        # a mod b, with b made monic on the fly
        inv_lead = pow(b[-1], p - 2, p)
        rem = list(a)
        db = len(b) - 1
        while len(rem) - 1 >= db and rem:
            c = (rem[-1] * inv_lead) % p
            shift = len(rem) - 1 - db
            for j, bj in enumerate(b):
                if bj:
                    rem[shift + j] = (rem[shift + j] - c * bj) % p
            _trim(rem)
        a, b = b, rem
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree d is irreducible over F_p.

    Uses the Frobenius ladder: x^(p^e) mod f is computed for e = 1..d;
    f must share no factor with x^(p^e) - x for any proper divisor e of d,
    and x^(p^d) must reduce to x.
    """
    d = len(f) - 1
    if d < 1:
        return False
    x = [0, 1]
    frob = x
    for e in range(1, d + 1):
        frob = _powmod(frob, p, f, p)
        if e < d and d % e == 0:
            diff = list(frob)
            while len(diff) < 2:
                diff.append(0)
            diff[1] = (diff[1] - 1) % p
            g = _gcd_fp(f, diff, p)
            if len(g) - 1 > 0:
                return False
    return _trim(list(frob)) == x


class Felt:
    """One element of F_{q^2}, stored as an integer packing its coefficients.

    The packed value is sum(c_i * p^i) for the coefficient vector
    (c_0, ..., c_{2k-1}) in the basis 1, x, ..., x^{2k-1} of F_p[x]/modulus.
    The packing is a bijection onto range(q^2), so equality of elements is
    equality of packed values.
    """

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        p, v = self.ctx.p, self.val
        out = []
        for _ in range(2 * self.ctx.k):
            v, c = divmod(v, p)
            out.append(c)
        return tuple(out)

    def to_coeffs(self) -> list[int]:
        return list(self.coeffs)

    def is_zero(self) -> bool:
        return self.val == 0

    def __bool__(self) -> bool:
        return self.val != 0

    def _coerce(self, other) -> "Felt | None":
        if isinstance(other, Felt):
            if other.ctx is not self.ctx:
                raise ValueError("elements from different fields")
            return other
        if isinstance(other, int):
            return self.ctx.scalar(other)
        return None

    def __add__(self, other) -> "Felt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.add_packed(self.val, o.val))

    __radd__ = __add__

    def __neg__(self) -> "Felt":
        return Felt(self.ctx, self.ctx.neg_packed(self.val))

    def __sub__(self, other) -> "Felt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.add_packed(self.val, self.ctx.neg_packed(o.val)))

    def __rsub__(self, other) -> "Felt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "Felt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Felt(self.ctx, self.ctx.mul_packed(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Felt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other) -> "Felt":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, e: int) -> "Felt":
        return Felt(self.ctx, self.ctx.pow_packed(self.val, e))

    def inv(self) -> "Felt":
        return Felt(self.ctx, self.ctx.inv_packed(self.val))

    def frobenius_q(self) -> "Felt":
        """The Frobenius x -> x^q; an order-2 automorphism fixing F_q."""
        return self ** self.ctx.q

    def log(self) -> int:
        """Discrete logarithm base gamma; errors on zero."""
        if self.val == 0:
            raise ZeroDivisionError("zero has no discrete logarithm")
        return self.ctx._log[self.val]

    def in_mu(self, ell: int) -> bool:
        """True iff this element is an ell-th root of unity.

        ell must divide q^2 - 1, so that mu_ell is the subgroup of that
        order in the cyclic group of units.
        """
        N = self.ctx.units
        if ell <= 0 or N % ell:
            raise ValueError(f"ell={ell} does not divide q^2-1={N}")
        if self.val == 0:
            return False
        return (self.ctx._log[self.val] * ell) % N == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Felt):
            return self.ctx is other.ctx and self.val == other.val
        if isinstance(other, int):
            # only the canonical scalars 0..p-1, so that equal objects hash equal
            return 0 <= other < self.ctx.p and self.val == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.val)

    def __repr__(self) -> str:
        return f"Felt{self.coeffs}"


class FieldCtx:
    """Immutable description of F_{q^2} plus its arithmetic tables.

    Safe to share across threads: nothing is mutated after construction.
    The packed-integer methods (*_packed) form the raw table layer used by
    performance-sensitive loops; Felt wraps them for everyday use.
    """

    __slots__ = ("p", "k", "q", "q2", "units", "modulus", "_exp", "_log",
                 "_zech", "gamma", "zeta")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 gamma_packed: int):
        self.p = p
        self.k = k
        self.q = p ** k
        self.q2 = self.q ** 2
        self.units = self.q2 - 1
        self.modulus = modulus

        # exp table: exp[i] is gamma^i packed; built by repeated dense
        # multiplication, packed once per entry.
        N = self.units
        gamma_dense = self._unpack_dense(gamma_packed)
        mod = list(modulus)
        exp = [0] * N
        cur = [1]
        for i in range(N):
            exp[i] = self._pack_dense(cur)
            cur = _mulmod(cur, gamma_dense, mod, p)
        if self._pack_dense(cur) != 1:
            raise ValueError("gamma does not have full order")
        self._exp = exp

        log = [-1] * self.q2
        for i, v in enumerate(exp):
            if log[v] != -1:
                raise ValueError("gamma powers collide; order too small")
            log[v] = i
        self._log = log

        # Zech table: zech[i] = log(1 + gamma^i), with N as the sentinel
        # for 1 + gamma^i = 0.
        zech = [0] * N
        for i in range(N):
            s = self._add_digits(1, exp[i])
            zech[i] = N if s == 0 else log[s]
        self._zech = zech

        self.gamma = Felt(self, gamma_packed)
        self.zeta = self.gamma ** (self.q - 1)

    # -- packing helpers ----------------------------------------------------

    def _unpack_dense(self, v: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(2 * self.k):
            v, c = divmod(v, p)
            out.append(c)
        return _trim(out)

    def _pack_dense(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _add_digits(self, a: int, b: int) -> int:
        """Componentwise sum of packed coefficient vectors; no tables."""
        p = self.p
        v, mult = 0, 1
        for _ in range(2 * self.k):
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            v += ((ca + cb) % p) * mult
            mult *= p
        return v

    # -- raw table layer ----------------------------------------------------

    def add_packed(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        N = self.units
        i = self._log[a]
        z = self._zech[(self._log[b] - i) % N]
        if z == N:
            return 0
        return self._exp[(i + z) % N]

    def neg_packed(self, a: int) -> int:
        if a == 0:
            return 0
        N = self.units
        return self._exp[(self._log[a] + N // 2) % N]

    def mul_packed(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        N = self.units
        return self._exp[(self._log[a] + self._log[b]) % N]

    def inv_packed(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in field")
        return self._exp[-self._log[a] % self.units]

    def pow_packed(self, a: int, e: int) -> int:
        """a^e with e reduced mod q^2-1 for nonzero a; 0^0 is 1."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        return self._exp[(self._log[a] * e) % self.units]

    # -- element constructors ----------------------------------------------

    def zero(self) -> Felt:
        return Felt(self, 0)

    def one(self) -> Felt:
        return Felt(self, 1)

    def neg_one(self) -> Felt:
        return Felt(self, self.neg_packed(1))

    def scalar(self, c: int) -> Felt:
        """The image of the integer c under the ring map Z -> F_{q^2}."""
        return Felt(self, c % self.p)

    def from_coeffs(self, coeffs: Sequence[int]) -> Felt:
        if len(coeffs) > 2 * self.k:
            raise ValueError("coefficient vector too long")
        vec = [c % self.p for c in coeffs]
        vec += [0] * (2 * self.k - len(vec))
        return Felt(self, self._pack_dense(vec))

    def from_packed(self, v: int) -> Felt:
        if not 0 <= v < self.q2:
            raise ValueError("packed value out of range")
        return Felt(self, v)

    def elements(self) -> Iterator[Felt]:
        for v in range(self.q2):
            yield Felt(self, v)

    def mu(self, ell: int) -> list[Felt]:
        """The subgroup of ell-th roots of unity, as powers of gamma^(N/ell)."""
        N = self.units
        if ell <= 0 or N % ell:
            raise ValueError(f"ell={ell} does not divide q^2-1={N}")
        step = N // ell
        return [Felt(self, self._exp[(step * i) % N]) for i in range(ell)]

    # -- named maps ----------------------------------------------------------

    def alpha_from_l(self, l: int) -> Felt:
        """gamma^(l(q-1)), the l-th power of zeta; always lands in mu_{q+1}."""
        return Felt(self, self._exp[(l * (self.q - 1)) % self.units])

    def sqrt(self, a: Felt) -> tuple[Felt, ...]:
        """Square roots of a, canonically ordered.

        Returns () when a is a nonzero non-square, (0,) for a = 0, and the
        pair (r, -r) with the smaller coefficient tuple first otherwise.
        The group of units is cyclic of even order, so a nonzero a is a
        square iff its discrete logarithm is even, and then gamma^(log/2)
        is one root.
        """
        if a.ctx is not self:
            raise ValueError("element from a different field")
        if a.val == 0:
            return (self.zero(),)
        i = self._log[a.val]
        if i & 1:
            return ()
        r = Felt(self, self._exp[i // 2])
        s = -r
        return (r, s) if r.coeffs <= s.coeffs else (s, r)

    # -- serialization -------------------------------------------------------

    def to_record(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus),
            "gamma": self.gamma.to_coeffs(),
        }

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, k={self.k}, q={self.q})"


_FIELD_CACHE: dict[tuple[int, int], FieldCtx] = {}


def make_field(p: int, k: int, size_bound: int | None = None) -> FieldCtx:
    """Construct F_{q^2} for q = p^k, deterministically.

    The modulus is the lexicographically smallest monic irreducible of
    degree 2k over F_p and gamma is the lexicographically smallest
    primitive element (coefficient tuples compared low degree first), so
    repeated construction always yields the same field description.
    Results are cached per (p, k).
    """
    check_field_params(p, k)
    check_size_bound(p ** (2 * k), size_bound)

    cached = _FIELD_CACHE.get((p, k))
    if cached is not None:
        return cached

    deg = 2 * k
    modulus: tuple[int, ...] | None = None
    for tail in itertools.product(range(p), repeat=deg):
        if tail[0] == 0:
            continue  # divisible by x
        f = list(tail) + [1]
        if _is_irreducible(f, p):
            modulus = tuple(f)
            break
    if modulus is None:  # every prime power has irreducibles; defensive
        raise ValueError("no irreducible modulus found")

    N = p ** deg - 1
    cofactors = [N // r for r in _prime_factors(N)]
    mod = list(modulus)
    gamma_packed = None
    for tail in itertools.product(range(p), repeat=deg):
        if not any(tail):
            continue
        cand = _trim(list(tail))
        if all(_powmod(cand, cf, mod, p) != [1] for cf in cofactors):
            gamma_packed = 0
            for c in reversed(tail):
                gamma_packed = gamma_packed * p + c
            break
    if gamma_packed is None:  # the unit group is cyclic; defensive
        raise ValueError("no primitive element found")

    ctx = FieldCtx(p, k, modulus, gamma_packed)
    _FIELD_CACHE[(p, k)] = ctx
    return ctx


def field_from_record(record: dict, size_bound: int | None = None) -> FieldCtx:
    """Rebuild a field from its serialized record, validating determinism."""
    ctx = make_field(int(record["p"]), int(record["k"]), size_bound)
    if list(ctx.modulus) != [c % ctx.p for c in record["modulus"]]:
        raise ValueError("modulus in record does not match deterministic construction")
    if ctx.gamma.to_coeffs() != [c % ctx.p for c in record["gamma"]]:
        raise ValueError("gamma in record does not match deterministic construction")
    return ctx
