"""
Constructing sparse permutation polynomials of F_{q^2}
======================================================

"""

# Everything lives on the quadratic extension F_{q^2} of a small odd
# prime field.  make_field picks a deterministic irreducible modulus
# and a deterministic generator gamma, so runs are reproducible.
from redeiperm import (PermSpec, build_perm_poly, check_criterion,
                       count_valid_n, family_poly, make_field, render_poly)

ctx = make_field(11, 1)
print(f"field F_{ctx.q2} = F_{ctx.q}^2, modulus {ctx.modulus}, "
      f"generator {ctx.gamma}")

# A construction request: variant H, inner degree n, exponent shift m,
# and alpha = zeta^l in the norm-one subgroup mu_{q+1}.
spec = PermSpec("H", 3, 0, ctx.alpha_from_l(0))
poly, evaluator = build_perm_poly(spec)
print("reduced polynomial:", render_poly(poly))

# The permutation property is decided by coprimality conditions alone;
# no exhaustive search is involved.
verdict = check_criterion(spec)
print("is a permutation:", verdict.is_perm)
for cond in verdict.conditions:
    print(f"  {cond.name} = {cond.value} -> "
          f"{'pass' if cond.passed else 'FAIL'}")

# The same n over F_49 fails: 3 divides q - 1 there.
ctx7 = make_field(7, 1)
bad = PermSpec("H", 3, 0, ctx7.alpha_from_l(0))
print("\nover F_49:", render_poly(build_perm_poly(bad)[0]))
for cond in check_criterion(bad).conditions:
    print(f"  {cond.name} = {cond.value} -> "
          f"{'pass' if cond.passed else 'FAIL'}")

# Which conditions apply depends on whether a square root of alpha lies
# in mu_{q+1}, and that is just the parity of l.
ctx9 = make_field(3, 2)
for l in (0, 1):
    v = check_criterion(PermSpec("H", 5, 1, ctx9.alpha_from_l(l)))
    names = ", ".join(c.name for c in v.conditions)
    print(f"\nF_81, l={l}: case {v.case}, conditions: {names}")

# The shifted choices m = q-3 and m = q-2 collapse the degree-3 family
# (the binomials, family_poly(ctx, 3, ...)) to especially thin shapes.
print()
for m in (ctx.q - 3, ctx.q - 2):
    p1 = family_poly(ctx, 3, "P1", m, 1)
    print(f"m = {m}: P1 reduces to {render_poly(p1)}")

# Roughly half of all inner degrees are admissible; the exact count is
# a one-liner.
print()
for q in (9, 27, 81, 243):
    c = count_valid_n(q, 0)
    print(f"q = {q:>3}: {c}/{q - 1} admissible n, ratio {c / (q - 1):.3f}")
