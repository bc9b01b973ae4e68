"""Criterion decisions, polynomial construction, the coset criterion,
bijectivity transfer, the published binomial/trinomial families, counting."""

import math

import pytest

from redeiperm import (CASE_IN, CASE_OUT, PermSpec, Poly, binomial_condition,
                       binomial_special_condition, build_perm_poly,
                       check_criterion, coset_factor_table, count_valid_n,
                       cyclotomic_criterion, family_binomial, family_spec,
                       family_trinomial, gh_coeffs, is_permutation_bruteforce,
                       make_field, poly_eval, sqrt_case,
                       transfer_bijectivity, trinomial_condition,
                       trinomial_special_condition)
from redeiperm.construct import scan


def test_spec_validation(q9):
    alpha = q9.alpha_from_l(1)
    with pytest.raises(ValueError):
        PermSpec("X", 3, 0, alpha)
    with pytest.raises(ValueError):
        PermSpec("H", 0, 0, alpha)
    with pytest.raises(ValueError):
        PermSpec("H", 3, 0, q9.gamma)  # gamma is not in mu_{q+1}
    spec = PermSpec("H", 3, -1, alpha)
    assert spec.r == 3 - (q9.q + 1)
    assert spec.to_record()["variant"] == "H"


def test_case_split_follows_parity_of_l(q7, q9):
    for ctx in (q7, q9):
        for l in range(ctx.q + 1):
            case = sqrt_case(ctx.alpha_from_l(l))
            assert case == (CASE_IN if l % 2 == 0 else CASE_OUT)


def test_criterion_frozen_examples(q7, q11, q9):
    # q = 7: gcd(3*3, 6) = 3, fails
    v = check_criterion(PermSpec("H", 3, 0, q7.one()))
    assert not v.is_perm and v.case == CASE_IN
    assert v.conditions[0].value == 3 and not v.conditions[0].passed
    # q = 11: gcd(9, 10) = 1, passes
    v = check_criterion(PermSpec("H", 3, 0, q11.one()))
    assert v.is_perm and v.conditions[0].value == 1
    # odd l at q = 9: two conditions
    v = check_criterion(PermSpec("G", 5, 0, q9.alpha_from_l(1)))
    assert v.case == CASE_OUT
    assert [c.name for c in v.conditions] == ["gcd(n+2m, q-1)", "gcd(n, q+1)"]
    assert [c.value for c in v.conditions] == [1, 5]
    assert not v.is_perm


def test_even_n_always_fails(q9):
    for l in (0, 1):
        for n in (2, 4, 6, 8):
            for m in (-1, 0, 2):
                assert not check_criterion(
                    PermSpec("H", n, m, q9.alpha_from_l(l))).is_perm


def test_build_frozen_shapes(q11, q9):
    one = q11.one()
    poly, _ = build_perm_poly(PermSpec("H", 3, 0, one))
    assert poly == Poly.from_terms(q11, [(23, q11.scalar(3)), (3, one)])
    poly, _ = build_perm_poly(PermSpec("G", 3, 0, one))
    assert poly == Poly.from_terms(q11, [(33, one), (13, q11.scalar(3))])
    poly, _ = build_perm_poly(PermSpec("H", 1, 0, q9.one()))
    assert poly == Poly.x(q9)


def test_build_normalises_negative_exponents(q9):
    spec = PermSpec("H", 3, -1, q9.alpha_from_l(2))  # r = -7
    poly, evaluator = build_perm_poly(spec)
    assert all(1 <= e <= q9.units for e in poly.terms)
    for a in q9.elements():
        assert poly_eval(poly, a) == evaluator(a)
    assert evaluator(q9.zero()) == 0


def test_evaluator_matches_poly_on_grid(q5, q9):
    for ctx in (q5, q9):
        for l in range(ctx.q + 1):
            alpha = ctx.alpha_from_l(l)
            for variant in ("H", "G"):
                for n in (1, 2, 3, 5, 8):
                    for m in (-2, 0, 3):
                        poly, ev = build_perm_poly(PermSpec(variant, n, m, alpha))
                        assert all(poly_eval(poly, a) == ev(a)
                                   for a in ctx.elements())


def test_coset_factor_table(q9):
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    table = coset_factor_table(spec)
    assert len(table) == q9.q + 1
    pair = gh_coeffs(spec.n, spec.alpha)
    for i, fv in enumerate(table):
        assert poly_eval(pair.h, q9.zeta ** i).val == fv


def test_bruteforce_oracle(q3):
    ok, witness = is_permutation_bruteforce(q3, Poly.x(q3))
    assert ok and witness is None
    square = Poly.monomial(q3, 2)
    ok, witness = is_permutation_bruteforce(q3, square)
    assert not ok
    a, b = witness
    assert a != b and a * a == b * b
    # callable dispatch
    ok, _ = is_permutation_bruteforce(q3, lambda x: x + 1)
    assert ok
    with pytest.raises(ValueError):
        is_permutation_bruteforce(q3, Poly.x(q3), size_bound=8)


def test_scan_returns_inverse_table_or_first_collision(q3, q5):
    spec = PermSpec("H", 3, 0, q5.alpha_from_l(2))
    _, ev = build_perm_poly(spec)
    table, collision = scan(q5, ev)
    assert collision is None
    assert [table[ev.eval_packed(v)] for v in range(q5.q2)] == list(range(q5.q2))
    # x^2 on F_9: 1 and 2 = -1 collide first; the scan stops at 2
    table, collision = scan(q3, Poly.monomial(q3, 2))
    assert collision == (1, 2, 1)
    assert table == [0, 1] + [-1] * 7


def test_criterion_matches_oracle_on_subgrid(q3, q7):
    for ctx in (q3, q7):
        for l in range(ctx.q + 1):
            alpha = ctx.alpha_from_l(l)
            for variant in ("H", "G"):
                for n in range(1, 8):
                    for m in (-1, 0, 1):
                        spec = PermSpec(variant, n, m, alpha)
                        _, ev = build_perm_poly(spec)
                        ok, _ = is_permutation_bruteforce(ctx, ev)
                        assert ok == check_criterion(spec).is_perm, \
                            (ctx.q, variant, n, m, l)


def test_cyclotomic_criterion(q7, q9):
    # x itself: r = 1, f = 1
    assert cyclotomic_criterion(q7, 1, Poly.one(q7))
    # gcd(r, q-1) != 1 is decisive
    assert not cyclotomic_criterion(q7, 2, Poly.one(q7))
    # a zero of f on mu_{q+1} kills bijectivity even with gcd(r, q-1) = 1
    f = Poly.x(q7) - Poly.one(q7)
    assert not cyclotomic_criterion(q7, 1, f)
    # agreement with the coprimality criterion across a sample
    for ctx in (q7, q9):
        for l in range(ctx.q + 1):
            alpha = ctx.alpha_from_l(l)
            for variant in ("H", "G"):
                for n in (1, 3, 5):
                    for m in (-1, 0, 1, 2):
                        spec = PermSpec(variant, n, m, alpha)
                        pair = gh_coeffs(n, alpha)
                        fpoly = pair.h if variant == "H" else pair.g
                        assert cyclotomic_criterion(ctx, spec.r, fpoly) == \
                            check_criterion(spec).is_perm


def test_transfer_bijectivity_decides():
    # a commuting square wrapping f(x) = x + 1 on Z/4 via parity
    f = {0: 1, 1: 2, 2: 3, 3: 0}
    lam = {0: 0, 1: 1, 2: 0, 3: 1}
    g_bar = {0: 1, 1: 0}
    assert transfer_bijectivity(f, lam, lam, g_bar)
    # collapse: f constant, g_bar constant image
    f2 = {0: 0, 1: 0, 2: 2, 3: 2}
    g2 = {0: 0, 1: 0}
    assert not transfer_bijectivity(f2, lam, lam, g2)


def test_transfer_bijectivity_validates_square():
    f = {0: 1, 1: 0}
    lam = {0: 0, 1: 0}
    with pytest.raises(ValueError):  # lam_bar domain mismatch
        transfer_bijectivity(f, lam, {0: 0}, {0: 0})
    with pytest.raises(ValueError):  # square does not commute
        transfer_bijectivity({0: 1, 1: 0}, {0: 0, 1: 1}, {0: 0, 1: 1},
                             {0: 0, 1: 1})
    with pytest.raises(ValueError):  # g_bar not on the image of lam
        transfer_bijectivity(f, lam, lam, {1: 0})
    with pytest.raises(ValueError):  # f leaves its domain
        transfer_bijectivity({0: 5, 1: 0}, lam, lam, {0: 0})


def test_transfer_bijectivity_on_field_data(q5):
    """The quotient by mu_{q-1}-cosets decides a monomial permutation."""
    q = q5.q
    for r in (3, 7):
        fmap = {v: q5.pow_packed(v, r) for v in range(q5.q2)}
        lam = {v: (0 if v == 0 else q5._log[v] % (q + 1)) for v in range(q5.q2)}
        g_bar = {}
        for v, s in lam.items():
            g_bar.setdefault(s, lam[fmap[v]])
        expected = math.gcd(r, q5.units) == 1
        assert transfer_bijectivity(fmap, lam, lam, g_bar) == expected


# ---------------------------------------------------------------------------
# The published families.
# ---------------------------------------------------------------------------

def test_family_equals_theorem_route(q5, q7, q13):
    for ctx, builder, fspec_deg in [(q5, family_binomial, 3),
                                    (q7, family_binomial, 3),
                                    (q7, family_trinomial, 5),
                                    (q13, family_trinomial, 5)]:
        for variant in ("P1", "P2"):
            for m in (-2, 0, 1, ctx.q - 3):
                for l in (0, 1, 2):
                    fam = builder(ctx, variant, m, l)
                    spec = family_spec(ctx, fspec_deg, variant, m, l)
                    built, _ = build_perm_poly(spec)
                    assert fam == built, (ctx.q, variant, m, l)


def test_family_reduced_special_forms(q7):
    q = q7.q
    alpha = q7.alpha_from_l(2)
    # m = q-3 collapses the binomial P1 to x^{q-2} + 3 alpha x^{q^2-q-1}
    fam = family_binomial(q7, "P1", q - 3, 2)
    assert fam == Poly.from_terms(
        q7, [(q - 2, q7.one()), (q * q - q - 1, 3 * alpha)])
    # m = q-2: P1 becomes x^{2q-1} + 3 alpha x, P2 becomes 3x^q + alpha x^{q^2-q+1}
    fam = family_binomial(q7, "P1", q - 2, 2)
    assert fam == Poly.from_terms(
        q7, [(2 * q - 1, q7.one()), (1, 3 * alpha)])
    fam = family_binomial(q7, "P2", q - 2, 2)
    assert fam == Poly.from_terms(
        q7, [(q, q7.scalar(3)), (q * q - q + 1, alpha)])


def test_family_rejects_degenerate_characteristic(q3, q9, q25):
    with pytest.raises(ValueError):
        family_binomial(q3, "P1", 0, 0)
    with pytest.raises(ValueError):
        family_binomial(q9, "P2", 0, 0)
    with pytest.raises(ValueError):
        family_trinomial(q25, "P1", 0, 0)
    with pytest.raises(ValueError):
        family_binomial(q7 := make_field(7, 1), "P3", 0, 0)


def test_family_conditions_match_criterion():
    """The stated coprimality conditions coincide with the general criterion."""
    for q, k in [(5, 1), (7, 1), (11, 1), (13, 1)]:
        ctx = make_field(q, k)
        for m in range(-4, 6):
            for l in range(q + 2):
                want = check_criterion(
                    PermSpec("G", 3, m, ctx.alpha_from_l(l))).is_perm
                assert binomial_condition(q, m, l) == want, (q, m, l)
    for q, k in [(3, 1), (7, 1), (9, 2), (13, 1)]:
        p = 3 if q == 9 else q
        ctx = make_field(p, k)
        for m in range(-4, 6):
            for l in range(q + 2):
                want = check_criterion(
                    PermSpec("H", 5, m, ctx.alpha_from_l(l))).is_perm
                assert trinomial_condition(q, m, l) == want, (q, m, l)


def test_special_conditions_match_general_onwide_integer_scan():
    """Congruence specialisations agree with the gcd forms for many q."""
    qs = [q for q in range(5, 200, 2)
          if all(q % d for d in range(2, q)) or q in (9, 25, 27, 49, 81, 121, 125, 169)]
    for q in qs:
        for l in (0, 1, 2, 3):
            if q % 3:
                for m in (q - 3, q - 2, 1, 0):
                    assert binomial_special_condition(q, m, l) == \
                        binomial_condition(q, m, l), ("binomial", q, m, l)
            if q % 5:
                for m in (q - 4, q - 3, 1, 0):
                    assert trinomial_special_condition(q, m, l) == \
                        trinomial_condition(q, m, l), ("trinomial", q, m, l)
    with pytest.raises(ValueError):
        binomial_special_condition(7, 2, 0)
    with pytest.raises(ValueError):
        trinomial_special_condition(7, 2, 0)


def test_family_conditions_against_bruteforce(q5, q9):
    for variant in ("P1", "P2"):
        for m in (0, 1, q5.q - 3, q5.q - 2):
            for l in range(q5.q + 1):
                fam = family_binomial(q5, variant, m, l)
                ok, _ = is_permutation_bruteforce(q5, fam)
                assert ok == binomial_condition(q5.q, m, l), (variant, m, l)
        for m in (0, 1, q9.q - 4, q9.q - 3):
            for l in range(q9.q + 1):
                fam = family_trinomial(q9, variant, m, l)
                ok, _ = is_permutation_bruteforce(q9, fam)
                assert ok == trinomial_condition(q9.q, m, l), (variant, m, l)


# ---------------------------------------------------------------------------
# Roots of unity identities behind the case split.
# ---------------------------------------------------------------------------

def test_moebius_ratio_identities(q5, q9):
    """((b+s)/(b-s))^{q-1} = -1 when s is in mu_{q+1}; power q+1 otherwise."""
    for ctx in (q5, q9):
        q = ctx.q
        minus_one = ctx.neg_one()
        for l in range(q + 1):
            alpha = ctx.alpha_from_l(l)
            in_case = sqrt_case(alpha) == CASE_IN
            for s in ctx.sqrt(alpha):
                for b in ctx.mu(q + 1):
                    if b == s or b == -s:
                        continue
                    ratio = (b + s) / (b - s)
                    if in_case:
                        assert ratio ** (q - 1) == minus_one
                        assert ratio.in_mu(2 * (q - 1))
                    else:
                        assert ratio ** (q + 1) == minus_one
                        assert ratio.in_mu(2 * (q + 1))


# ---------------------------------------------------------------------------
# Counting.
# ---------------------------------------------------------------------------

def test_count_frozen_values():
    assert count_valid_n(9, 0, 8) == 4
    assert count_valid_n(27, 0, 26) == 12
    assert count_valid_n(81, 0, 80) == 32
    assert count_valid_n(243, 0, 242) == 110


def test_count_matches_direct_filter():
    for q in (9, 27):
        for m in (-1, 0, 2):
            direct = [n for n in range(1, q)
                      if math.gcd(n * (n + 2 * m), q - 1) == 1]
            assert count_valid_n(q, m, q - 1) == len(direct)


def test_count_ratio_near_half():
    for k in (2, 3, 4, 5):
        q = 3 ** k
        ratio = count_valid_n(q, 0, q - 1) / (q - 1)
        assert 0.30 <= ratio <= 0.55
