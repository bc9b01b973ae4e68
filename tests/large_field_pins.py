"""Checks on F_{1021^2} and F_{729^2}, the two fields too large for the
tier-1 suite, with the oracle and both inverses of one permutation of
F_{1021^2} timed, and the oracle's refusal of a non-permutation of each.

    PYTHONPATH=src python tests/large_field_pins.py

On F_{1021^2}, P = perm_coset_map(H, n = 7, m = 0, l = 2): the oracle must
certify P, and CosetMap.inverse() must equal inverse_table by values (their
packed tables) and by value digest.  The three timings are printed, not
gated.  On both fields (P on F_{729^2} is H, n = 3, m = 1, l = 1): the
cyclotomic route's inverse polynomial, evaluated at every point through
poly_eval on packed ints, must have the same pinned value digest as P's
inverse, with its constructor and digest times printed, not gated; log must
invert exp, 256 sampled powers must step to the next by gamma, P composed
with its inverse must be the identity and P with itself must not, the
value digest of P's inverse must equal its pinned value, so a slip in the
digest's byte layout shows here, the points that P's coset rows
(CosetMap.log_rows) carry must cover F_{q^2}^* exactly once, and the
oracle must refuse the non-permutation H, n = 2, m = 0, l = 1 with a pair
of points that eval_packed sends to one value, found by the packed-order
loop's early exit.  From an empty memo of F, P's spec and the same spec with m + 1 must
share one gh_table call and get P's coset table.  The first failed check
exits 1 with its message.  Stdlib only; a few seconds and about 100 MB of memory.
"""

from __future__ import annotations

import random
import time

from redeiperm import (PermSpec, cli, construct, coset_factor_table,
                       inverse_cyclotomic, inverse_table,
                       is_permutation_bruteforce, make_field)
from redeiperm.construct import perm_coset_map
from redeiperm.field_tower import _mulmod
from redeiperm.inverse import _value_digest, packed_table

# even n never permutes: gcd(n(n+2m), q-1) and gcd(n+2m, q-1) are even
NON_PERMUTATION = ("H", 2, 0, 1)
PINS = [((1021, 1), ("H", 7, 0, 2),
         "d3ad0b234c8c5b5fd2877ee46f0e6b6f40ea8f171b31078020d77f026f2eef66"),
        ((3, 6), ("H", 3, 1, 1),
         "c98928354ebb21822410dbfd8d7aefc367a4dd9493af21118890801f2fdd04be")]


def check_inverses(ctx, cm) -> None:
    """The timed oracle and inverses of cm, and their agreement."""
    t = time.perf_counter()
    verdict = is_permutation_bruteforce(ctx, cm)
    t1 = time.perf_counter()
    table = inverse_table(ctx, cm)
    t2 = time.perf_counter()
    inv = cm.inverse()
    t3 = time.perf_counter()
    print(verdict, round(1000 * (t1 - t)), "ms oracle,",
          round(1000 * (t2 - t1)), "ms inverse_table,",
          round(1000 * (t3 - t2), 2), "ms CosetMap.inverse")
    if verdict != (True, None):
        raise SystemExit(f"{ctx}: the oracle refuses a certified permutation")
    if inv is None or packed_table(ctx, inv) != packed_table(ctx, table):
        raise SystemExit("CosetMap.inverse() differs from inverse_table")
    if _value_digest(ctx, inv) != _value_digest(ctx, table):
        raise SystemExit("the digest of CosetMap.inverse() differs from that "
                         "of inverse_table")


def check_cyclotomic(ctx, spec, pin: str) -> None:
    """The timed cyclotomic route of spec, whose value digest must be pin."""
    t = time.perf_counter()
    inv = inverse_cyclotomic(spec)
    t1 = time.perf_counter()
    digest = _value_digest(ctx, inv)
    t2 = time.perf_counter()
    print(ctx, len(inv.terms), "terms:", round(1000 * (t1 - t)),
          "ms inverse_cyclotomic,", round(1000 * (t2 - t1)), "ms its digest")
    if digest != pin:
        raise SystemExit(f"{ctx}: the digest of the cyclotomic inverse "
                         "differs from the pinned inverse digest")


def check_refusal(ctx, cm) -> None:
    """The oracle refuses cm, a non-permutation, with a colliding pair."""
    verdict, pair = is_permutation_bruteforce(ctx, cm)
    if verdict or pair is None:
        raise SystemExit(f"{ctx}: the oracle certifies a non-permutation")
    a, b = (x.val for x in pair)
    if a == b or cm.eval_packed(a) != cm.eval_packed(b):
        raise SystemExit(f"{ctx}: the oracle's witness {a}, {b} does not "
                         "collide")


def check_shared_table(ctx, spec, cm) -> None:
    """spec, cm's spec, and spec with m + 1 share one gh_table call and get
    cm's table."""
    construct._factor_values.cache_clear()
    real, calls = construct.gh_table, []
    construct.gh_table = lambda *args: calls.append(args) or real(*args)
    try:
        tables = [coset_factor_table(spec._replace(m=m))
                  for m in (spec.m, spec.m + 1)]
    finally:
        construct.gh_table = real
    if len(calls) != 1:
        raise SystemExit(f"{ctx}: two specs that differ only in m made "
                         f"{len(calls)} gh_table calls, not one")
    if tables != [cm.table, cm.table]:
        raise SystemExit(f"{ctx}: two specs that differ only in m got "
                         "different coset tables")


def check_row_points(ctx, cm) -> None:
    """The points of cm's q+1 coset rows mark every nonzero point once."""
    seen = bytearray(ctx.q2)
    for points, _ in cm.log_rows():
        for x in points:
            if seen[x]:
                raise SystemExit(f"{ctx}: the point {x} lies in two coset rows")
            seen[x] = 1
    if seen.count(0) != 1:
        raise SystemExit(f"{ctx}: the coset rows miss "
                         f"{seen.count(0) - 1} nonzero points")


def check_field(f, c, pin: str) -> None:
    """The tables of f, and the composition and pinned digest of c's inverse."""
    exp, log, N = f._exp, f._log, f.units
    if log[0] != -1 or any(log[v] != i for i, v in enumerate(exp)):
        raise SystemExit(f"{f}: log is not the inverse of exp")
    gamma, mod = f._unpack_dense(f.gamma.val), list(f.modulus)
    for i in random.Random(1).sample(range(N), 256):
        dense = _mulmod(f._unpack_dense(exp[i]), gamma, mod, f.p)
        if f._pack_dense(dense) != exp[(i + 1) % N]:
            raise SystemExit(f"{f}: exp[{i + 1}] is not exp[{i}]*gamma")
    if not cli._compose_identity_holds(f, c, c.inverse()):
        raise SystemExit(f"{f}: a map composed with its inverse is not the identity")
    if cli._compose_identity_holds(f, c, c):
        raise SystemExit(f"{f}: a map composed with itself is the identity")
    if _value_digest(f, c.inverse()) != pin:
        raise SystemExit(f"{f}: the digest of the inverse differs from its "
                         "pinned value")


def main() -> None:
    for i, ((p, k), (variant, n, m, l), pin) in enumerate(PINS):
        ctx = make_field(p, k)
        spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
        cm = perm_coset_map(spec)
        if i == 0:  # the timed field, F_{1021^2}
            check_inverses(ctx, cm)
        check_field(ctx, cm, pin)
        check_cyclotomic(ctx, spec, pin)
        check_row_points(ctx, cm)
        check_shared_table(ctx, spec, cm)
        variant, n, m, l = NON_PERMUTATION
        check_refusal(ctx, perm_coset_map(PermSpec(variant, n, m,
                                                   ctx.alpha_from_l(l))))
    print("large fields: every check passed")


if __name__ == "__main__":
    main()
