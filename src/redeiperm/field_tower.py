"""Exact arithmetic in F_{q^2}, the quadratic extension of F_q with q = p^k odd.

The tower F_p < F_q < F_{q^2} is realised as F_p[x] modulo a monic irreducible
polynomial of degree 2k.  Construction is deterministic: the modulus is the
lexicographically smallest monic irreducible of degree 2k (coefficient tuples
compared low degree first), and the primitive element gamma is the smallest
element, in the same ordering, whose multiplicative order is exactly q^2 - 1.

All q^2 - 1 powers of gamma and their logs are tabulated once at
construction, so that multiplication, inversion, powering and discrete
logarithms are O(1) lookups.  x -> gamma*x is F_p-linear, so each power is
the digitwise sum of precomputed images of the low and high k digits of the
one before: a few lookups, not an O(k^2) product.  The image tables come
from the same linearity, digit by digit from 2k dense products, and dense
products at q + 2 entries cross-check the step.  Addition needs no Zech
table: 1 + v differs from v only in the constant digit, so log(1 + gamma^d)
is an exp and a log lookup (add_logs).  Only the O(q^2) chains of
sum_powers, which keep a sum of powers of gamma as a log, read a stored
Zech table, built on first use.  The size bound on q^2 keeps table
construction cheap and guards every exhaustive operation downstream.

Memory: exp is a list, one int object per power, which the tables derived
from it (CosetMap.log_values, the scan's inverse table) store rather than
copy.  log and Zech are arrays of the narrowest signed item that holds
q^2 - 1 (4 bytes from q^2 > 2^15 to far above the default bound), so they
own no int object: exp and log take about 44 bytes per element
(TABLE_BYTES_PER_ELEMENT), and Zech adds one item per element.  A read
from an array makes a fresh int, a little slower than a list read.

On top of the tables the module provides the Frobenius x -> x^q, membership
in the subgroups mu_ell of ell-th roots of unity, square roots with a
canonical choice of sign, and the parametrisation alpha = gamma^(l(q-1)) of
mu_{q+1}.  F_q itself is not a separate type; it is the fixed field of the
Frobenius inside F_{q^2}.
"""

from __future__ import annotations

import itertools
import math
from array import array
from typing import Iterable, Iterator, Sequence

DEFAULT_SIZE_BOUND = 1 << 20
# Bytes the exp and log tables take per element of F_{q^2}, as the size
# refusal states them: exp's 8-byte list slot and its int (28 bytes, 32 as
# allocated; values are below 2^30), and the log table's array item (4 bytes
# while q^2 - 1 < 2^31).
TABLE_BYTES_PER_ELEMENT = 44


def _decimal(n: int) -> str:
    """n in decimal, or its bit length when n has too many digits for
    every limit Python may set on int-to-str conversion (at least 640)."""
    bits = n.bit_length()
    return str(n) if bits <= 2000 else f"({bits}-bit integer)"


def check_field_params(p: int, k: int) -> None:
    """q = p^k needs an odd prime p and k >= 1; primality is left to
    check_odd_prime, run after the size bound has made p small."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p={_decimal(p)} is not an odd prime")
    if k < 1:
        raise ValueError("k must be a positive integer")


def check_odd_prime(p: int) -> None:
    """Refuse an odd p >= 3 that is not prime, by trial division."""
    if _prime_factors(p) != [p]:
        raise ValueError(f"p={p} is not an odd prime")


def _prime_factors(n: int, limit: float = math.inf) -> list[int]:
    """Distinct prime factors of n, by trial division with divisors up to
    limit; a cofactor left over is listed last as it is, prime or not."""
    out = []
    d = 2
    while d * d <= n and d <= limit:
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
        inv_lead = pow(b[-1], p - 2, p)  # a mod b is a mod b made monic
        a, b = b, _mulmod(a, [1], [c * inv_lead % p for c in b], p)
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


def _first_tuple(digits: list[range], accept, refusal: str) -> tuple[int, ...]:
    """The first tuple of product(*digits) that accept takes, or ValueError(refusal)."""
    for tail in itertools.product(*digits):
        if accept(tail):
            return tail
    raise ValueError(refusal)


def _digits(v: int, p: int, n: int) -> list[int]:
    """The n base-p digits of v, low first."""
    out = []
    for _ in range(n):
        v, c = divmod(v, p)
        out.append(c)
    return out


def _copies(table: list[int], offsets: Iterable[int]) -> list[int]:
    """table once per offset, in the order of offsets, with the offset added."""
    return [t + a for a in offsets for t in table]


def _step_tables(p: int, k: int, gamma: Sequence[int],
                 mod: Sequence[int]) -> tuple[list[int], list[int], list[int], int]:
    """Tables for one multiplication by gamma on packed values of F_{q^2}.

    Returns (lo_tab, hi_tab, unspread, shift).  lo_tab[lo] is gamma*lo and
    hi_tab[hi] is gamma*hi*x^k, for k-digit values lo and hi, in a spread
    encoding that gives each base-p digit its own slot of w bits, w the bit
    length of 2p - 2, so that lo_tab[lo] + hi_tab[hi] adds digitwise with no
    carries.  shift = k*w bits hold the low k slots; unspread maps each
    reachable k-slot sum (digits 0..2p-2) to its packed value reduced mod p,
    and holds 0 at every other index.

    Every table is built by linearity, with no product per entry.  The
    reachable slot sums grow one slot at a time: those of s+1 slots are
    those of s slots once per top digit c, at index + c*2^(s*w) with value
    + (c mod p)*p^s.  lo_tab grows one base-p digit at a time from the k
    dense images gamma*x^i (gamma*x^(k+i) for hi_tab): for v < p^i,
    lo_tab[v + d*p^i] is lo_tab[v + (d-1)*p^i] plus the image of x^i, a
    carry-free spread sum reduced mod p through unspread.
    """
    w = (2 * p - 2).bit_length()
    shift = k * w
    mask = (1 << shift) - 1
    index, value, spread = [0], [0], [0]  # spread[v]: v < q in the encoding
    for slot in range(k):
        index = _copies(index, [c << slot * w for c in range(2 * p - 1)])
        value = _copies(value, [c % p * p ** slot for c in range(2 * p - 1)])
        spread = _copies(spread, [c << slot * w for c in range(p)])
    unspread = [0] * (index[-1] + 1)
    for i, v in zip(index, value):
        unspread[i] = v

    def by_digits(first: int) -> list[int]:
        tab = [0]
        for i in range(k):
            image = _mulmod(gamma, [0] * (first + i) + [1], mod, p)
            step = sum(c << j * w for j, c in enumerate(image))
            block = tab
            for _ in range(1, p):
                block = [spread[unspread[(s := t + step) & mask]]
                         | spread[unspread[s >> shift]] << shift for t in block]
                tab += block
        return tab

    return by_digits(0), by_digits(k), unspread, shift


def require_field(ctx: FieldCtx, *items) -> None:
    """ValueError unless every item (an element or a map) lies over ctx."""
    if any(x.ctx is not ctx for x in items):
        raise ValueError("elements from different fields")


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
        return tuple(_digits(self.val, self.ctx.p, 2 * self.ctx.k))

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

    Safe to share across threads: nothing is mutated after construction but
    the cached Zech table, which two racing first reads build twice, equal.
    The packed-integer methods (*_packed) form the raw table layer used by
    performance-sensitive loops; Felt wraps them for everyday use.
    """

    __slots__ = ("p", "k", "q", "q2", "units", "modulus", "_exp", "_log",
                 "_zech_table", "gamma", "zeta")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...],
                 gamma_packed: int):
        self.p = p
        self.k = k
        self.q = p ** k
        self.q2 = self.q ** 2
        self.units = self.q2 - 1
        self.modulus = modulus

        # exp table: exp[i] is gamma^i packed, stepped through its low and
        # high k digits (lo, hi) by the linear step of _step_tables.
        N, q = self.units, self.q
        gamma_dense = self._unpack_dense(gamma_packed)
        mod = list(modulus)
        lo_tab, hi_tab, unspread, shift = _step_tables(p, k, gamma_dense, mod)
        mask = (1 << shift) - 1
        exp = [0] * N
        lo, hi = 1, 0
        for i in range(N):
            exp[i] = lo + q * hi
            s = lo_tab[lo] + hi_tab[hi]
            lo = unspread[s & mask]
            hi = unspread[s >> shift]
        del lo_tab, hi_tab, unspread
        last = lo + q * hi  # gamma^N, one step past the table
        # Independent cross-check of the step by dense multiplication.
        for i in (*range(0, N, q - 1), N - 1):
            step = exp[i + 1] if i + 1 < N else last
            dense = _mulmod(self._unpack_dense(exp[i]), gamma_dense, mod, p)
            if self._pack_dense(dense) != step:
                raise ArithmeticError(f"exp table step at index {i} disagrees "
                                      "with dense multiplication by gamma")
        if last != 1:
            raise ValueError("gamma does not have full order")
        self._exp = exp

        # the narrowest signed item that holds N, chosen by itemsize: the C
        # types behind the typecodes do not fix their sizes
        code = next(c for c in "bhiq" if N < 1 << 8 * array(c).itemsize - 1)
        log = array(code, [-1]) * self.q2
        for i, v in enumerate(exp):
            if log[v] != -1:
                raise ValueError("gamma powers collide; order too small")
            log[v] = i
        self._log = log
        self._zech_table: array | None = None

        self.gamma = Felt(self, gamma_packed)
        self.zeta = self.gamma ** (self.q - 1)

    # -- packing helpers ----------------------------------------------------

    def _unpack_dense(self, v: int) -> list[int]:
        return _trim(_digits(v, self.p, 2 * self.k))

    def _pack_dense(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _add_digits(self, a: int, b: int) -> int:
        """Componentwise sum of packed coefficient vectors; no tables."""
        p, d = self.p, 2 * self.k
        return self._pack_dense([(ca + cb) % p for ca, cb in
                                 zip(_digits(a, p, d), _digits(b, p, d))])

    # -- raw table layer ----------------------------------------------------

    def add_logs(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        """log(gamma^a + gamma^b) = a + log(1 + w), w = gamma^(b-a), for each
        pair of logs, q^2-1 standing for 0: 1 + w is w + 1, or w - (p-1) when
        the constant digit of w wraps from p - 1 (no carry), 0 for w = p - 1."""
        exp, log, N, p, top = self._exp, self._log, self.units, self.p, self.p - 1
        return [b if a == N else a if b == N else
                N if (w := exp[b - a]) == top else
                (a + log[w + 1 if w % p < top else w - top]) % N
                for a, b in pairs]

    @property
    def _zech(self) -> array:
        """zech[d] = log(1 + gamma^d), q^2-1 for 0, built on first read: the
        rule of add_logs for every d at once, log rotated within blocks of p,
        in an array like the log table's."""
        if self._zech_table is None:
            log, N, p = self._log, self.units, self.p
            succ_log = log[1:]
            succ_log.append(N)
            succ_log[p - 1::p] = log[0::p]
            succ_log[p - 1] = N  # 1 + (p - 1) = 0
            self._zech_table = array(log.typecode,
                                     map(succ_log.__getitem__, self._exp))
        return self._zech_table

    def add_packed(self, a: int, b: int) -> int:
        """a + b by the rule of add_logs, written out: a call costs more."""
        if a == 0:
            return b
        if b == 0:
            return a
        exp, log, p = self._exp, self._log, self.p
        i = log[a]
        w = exp[log[b] - i]
        if w == p - 1:
            return 0
        return exp[(i + log[w + 1 if w % p < p - 1 else w - p + 1]) % self.units]

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

    def sum_powers(self, logs: Iterable[int]) -> int:
        """Packed sum of gamma^l over logs, which need not be reduced.

        The running sum is kept as a log, with q^2-1 standing for 0, so each
        term costs one Zech lookup: gamma^a + gamma^l = gamma^(a + z) with
        z = zech[l - a], and z = q^2-1 when the two cancel.
        """
        N, zech = self.units, self._zech
        acc = N
        for l in logs:
            if acc == N:
                acc = l % N
            elif (z := zech[(l - acc) % N]) == N:
                acc = N
            else:
                acc = (acc + z) % N
        return 0 if acc == N else self._exp[acc]

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
        require_field(self, a)
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
    Results are cached per (p, k).  This is the one check of q^2 against
    the size bound, made on every call: each later loop over the field's
    points is O(q^2), the size of the tables the field already holds.  The
    refusal names their estimated bytes, TABLE_BYTES_PER_ELEMENT per element.
    """
    check_field_params(p, k)
    bound = DEFAULT_SIZE_BOUND if size_bound is None else size_bound
    huge = 2 * k > bound.bit_length()  # p^(2k) > 2^(2k) > bound: never build it
    if huge or p ** (2 * k) > bound:
        q2 = f"{_decimal(p)}^{_decimal(2 * k)}" if huge else _decimal(p ** (2 * k))
        per = TABLE_BYTES_PER_ELEMENT
        table_bytes = f"{per}*{q2}" if huge else _decimal(per * p ** (2 * k))
        raise ValueError(f"q^2 = {q2} exceeds the size bound {bound}; its exp "
                         f"and log tables would take about {table_bytes} bytes")
    check_odd_prime(p)

    cached = _FIELD_CACHE.get((p, k))
    if cached is not None:
        return cached

    deg = 2 * k
    # defensive refusals: irreducibles exist and the unit group is cyclic
    modulus = _first_tuple(  # no constant term 0: x would divide the modulus
        [range(1, p)] + [range(p)] * (deg - 1),
        lambda tail: _is_irreducible([*tail, 1], p),
        "no irreducible modulus found") + (1,)
    N = p ** deg - 1
    cofactors = [N // r for r in _prime_factors(N)]
    mod = list(modulus)
    gamma = _first_tuple(
        [range(p)] * deg, lambda tail: any(tail) and all(
            _powmod(_trim(list(tail)), cf, mod, p) != [1] for cf in cofactors),
        "no primitive element found")

    ctx = FieldCtx(p, k, modulus, sum(c * p ** i for i, c in enumerate(gamma)))
    _FIELD_CACHE[(p, k)] = ctx
    return ctx


def field_for_q(q: int, size_bound: int | None = None) -> FieldCtx:
    """The field with exactly q^2 elements, for a prime-power q.

    A composite q with q^2 <= bound has a prime factor d with d^4 <= bound,
    so trial division stops there; a q with no such factor is passed on as
    a prime, and make_field refuses it by the bound if q^2 exceeds it.
    """
    bound = DEFAULT_SIZE_BOUND if size_bound is None else size_bound
    factors = _prime_factors(q, math.isqrt(math.isqrt(bound)))
    if len(factors) != 1:
        raise ValueError(f"q={_decimal(q)} is not a prime power")
    p, k = factors[0], 1
    while p ** k < q:
        k += 1
    return make_field(p, k, size_bound)
