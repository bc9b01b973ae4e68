"""
Three independent routes to the compositional inverse
=====================================================

"""

# Build a permutation of F_81 first.  n = 7 keeps the inner polynomial
# interesting and satisfies every closed-form hypothesis.
from redeiperm import (PermSpec, agreement_report, build_perm_poly,
                       inverse_cyclotomic, inverse_table, lift_inverse,
                       make_field, mu_inverse, render_poly)

ctx = make_field(3, 2)
spec = PermSpec("H", 7, 0, ctx.alpha_from_l(2))
poly, evaluator = build_perm_poly(spec)
print("P =", render_poly(poly))

# Every route reads P's coset map, so it is built once and passed on.
# Route 1: interpolation over the cyclotomic cosets gives the inverse as
# a polynomial with at most q + 1 terms.
inv_poly = inverse_cyclotomic(spec, evaluator)
print("P^(-1) =", render_poly(inv_poly))

# Route 2: the closed form.  The inverse restricted to the norm-one
# subgroup has one of four power shapes, picked by variant and by where
# the square root of alpha sits; lifting it gives an O(1) evaluator.
mu_inv = mu_inverse(spec)
print("closed form on mu_{q+1}: case", mu_inv.case,
      "with exponent", mu_inv.n_inv)
closed = lift_inverse(spec, evaluator)

# Route 3: invert the value table outright.  Quadratic work, but it is
# the route that cannot be wrong, so it anchors the other two.
table = inverse_table(ctx, evaluator)

# All three must produce the same function; the report digests the full
# value table of each route.
report = agreement_report(spec)
print("routes agree:", report["agree"])
for route, digest in sorted(report["routes"].items()):
    print(f"  {route:<10} {digest[:16]}...")

# Composition really is the identity, pointwise.
ok = all(evaluator.eval_packed(closed.eval_packed(v)) == v
         for v in range(ctx.q2))
print("P o P^(-1) = id on all", ctx.q2, "points:", ok)

# When gcd(n, q+1) > 1 the closed form does not apply and says so; the
# other two routes still agree with each other.
blocked = PermSpec("G", 5, 0, ctx.alpha_from_l(0))
report = agreement_report(blocked)
print("\nn = 5 over F_81: agree =", report["agree"],
      "| skipped:", report["skipped"].get("closed"))
