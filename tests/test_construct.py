"""Criterion decisions, polynomial construction, the coset criterion,
the published binomial/trinomial families, counting."""

import math

import pytest

from redeiperm import construct, field_tower, redei
from redeiperm import (CASE_IN, CASE_OUT, CosetMap, InverseTable, PermSpec,
                       Poly, build_perm_poly, check_criterion,
                       coset_factor_table, count_valid_n, cyclotomic_criterion,
                       family_condition, family_poly, family_spec,
                       family_special_condition, gh_coeffs, inverse_table,
                       is_permutation_bruteforce, make_field, poly_eval,
                       sqrt_case)
from redeiperm.construct import MEMO_SIZE, perm_coset_map, perm_factor, scan
from redeiperm.inverse import packed_table


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
    assert poly == Poly.from_terms(q9, [(1, 1)])


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


# Each memo test starts from empty memos (conftest.cold_memos).


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count construct's gh_coeffs and gh_table calls, which the memos of F
    make on a miss only."""
    calls = {"gh_coeffs": 0, "gh_table": 0}
    for name in calls:
        real = getattr(construct, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(construct, name, counted)
    return calls


def _cold_build(spec):
    construct._redei_pair.cache_clear()
    construct._factor_values.cache_clear()
    return build_perm_poly(spec)


def test_specs_differing_in_m_or_variant_share_one_build(monkeypatch, q25):
    alpha = q25.alpha_from_l(3)
    specs = [PermSpec(v, 5, m, alpha) for v in "HG" for m in (0, 1, 2)]
    calls = _count_builds(monkeypatch)
    warm = [build_perm_poly(spec) for spec in specs]
    assert calls == {"gh_coeffs": 1, "gh_table": 2}
    for spec, (poly, cm) in zip(specs, warm):
        cold_poly, cold_cm = _cold_build(spec)
        assert poly == cold_poly
        assert (cm.e, cm.table) == (cold_cm.e, cold_cm.table)
    assert calls == {"gh_coeffs": 7, "gh_table": 8}


def test_a_fresh_field_gets_its_own_entries(monkeypatch, q25):
    spec = PermSpec("H", 5, 1, q25.alpha_from_l(3))
    table, f = coset_factor_table(spec), perm_factor(spec)
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    other = make_field(5, 2)
    assert other is not q25
    twin = PermSpec("H", 5, 1, other.alpha_from_l(3))
    assert twin.alpha.val == spec.alpha.val and twin.alpha != spec.alpha
    calls = _count_builds(monkeypatch)
    assert coset_factor_table(twin) == table
    assert perm_factor(twin).ctx is other and perm_factor(twin) != f
    assert calls == {"gh_coeffs": 1, "gh_table": 1}
    assert construct._factor_values.cache_info().currsize == 2
    assert construct._redei_pair.cache_info().currsize == 2
    assert perm_factor(spec) is f  # the first field's entry is still there


def test_a_returned_table_is_the_callers_own(q25):
    spec = PermSpec("G", 7, 0, q25.alpha_from_l(4))
    table = coset_factor_table(spec)
    kept = list(table)
    table[0] ^= 1
    table.append(0)
    assert coset_factor_table(spec) == kept
    assert perm_coset_map(spec).table == kept


def test_a_table_entry_points_at_the_fields_ints(q25):
    """A memoised table adds q+1 pointers and no ints: its values are the
    objects of the field's exp list."""
    coset_factor_table(PermSpec("H", 7, 0, q25.alpha_from_l(3)))
    values = construct._factor_values(7, q25.alpha_from_l(3), 1)
    assert any(v > 256 for v in values)
    assert all(v == 0 or v is q25._exp[q25._log[v]] for v in values)


def test_an_evicted_key_is_rebuilt_equal(monkeypatch, q25):
    keys = [(n, alpha) for alpha in q25.mu(q25.q + 1)
            for n in range(1, 21)][:MEMO_SIZE + 1]
    assert len(keys) == MEMO_SIZE + 1
    specs = [PermSpec("H", n, 0, alpha) for n, alpha in keys]
    first = (perm_factor(specs[0]), coset_factor_table(specs[0]))
    calls = _count_builds(monkeypatch)
    for spec in specs[1:]:
        perm_factor(spec), coset_factor_table(spec)
    assert calls == {"gh_coeffs": MEMO_SIZE, "gh_table": MEMO_SIZE}
    assert construct._factor_values.cache_info().currsize == MEMO_SIZE
    again = (perm_factor(specs[0]), coset_factor_table(specs[0]))
    assert calls == {"gh_coeffs": MEMO_SIZE + 1, "gh_table": MEMO_SIZE + 1}
    assert again == first and again[0] is not first[0]


def test_a_failed_build_leaves_no_entry(monkeypatch, q25):
    """A build whose spot check fails raises and is not memoised, so the
    next call builds and checks again."""
    spec = PermSpec("H", 5, 0, q25.alpha_from_l(2))
    real = redei._gh_closed_packed
    monkeypatch.setattr(redei, "_gh_closed_packed",
                        lambda *a: [v ^ 1 for v in real(*a)])
    with pytest.raises(ArithmeticError, match="disagrees with matrix powering"):
        coset_factor_table(spec)
    assert construct._factor_values.cache_info().currsize == 0
    monkeypatch.setattr(redei, "_gh_closed_packed", real)
    assert coset_factor_table(spec) == [
        poly_eval(gh_coeffs(5, spec.alpha).h, q25.zeta ** i).val
        for i in range(q25.q + 1)]


def test_bruteforce_oracle(q3):
    ok, witness = is_permutation_bruteforce(q3, Poly.from_terms(q3, [(1, 1)]))
    assert ok and witness is None
    square = Poly.from_terms(q3, [(2, 1)])
    ok, witness = is_permutation_bruteforce(q3, square)
    assert not ok
    a, b = witness
    assert a != b and a * a == b * b
    # the other map kinds: x -> x + 1 as a table, x^2 as a CosetMap
    shift = InverseTable(q3, [(x + 1).val for x in q3.elements()])
    assert is_permutation_bruteforce(q3, shift) == (True, None)
    ok, (a, b) = is_permutation_bruteforce(q3, CosetMap(q3, 2, [1] * (q3.q + 1)))
    assert not ok and a != b and a * a == b * b


def test_scan_returns_inverse_table_or_first_collision(q3, q5):
    spec = PermSpec("H", 3, 0, q5.alpha_from_l(2))
    _, ev = build_perm_poly(spec)
    table, collision = scan(q5, ev)
    assert collision is None
    assert [table[ev.eval_packed(v)] for v in range(q5.q2)] == list(range(q5.q2))
    # x^2 on F_9: 1 and 2 = -1 collide first; the scan stops at 2
    table, collision = scan(q3, Poly.from_terms(q3, [(2, 1)]))
    assert collision == (1, 2, 1)
    assert table.typecode == "I"
    assert table.tolist() == [0, 1] + [q3.q2] * 7  # q^2: no preimage yet


def test_the_oracle_refuses_a_map_of_another_field(q9, q25):
    """scan, packed_table and everything on them refuse a map whose field
    is not the one they are asked to run over, whichever is the larger."""
    for ctx, other in ((q9, q25), (q25, q9)):
        poly, cm = build_perm_poly(PermSpec("H", 1, 0, other.alpha_from_l(1)))
        table = InverseTable(other, list(range(other.q2)))
        for f in (cm, poly, table, inverse_table(other, cm)):
            for run in (lambda: scan(ctx, f),
                        lambda: packed_table(ctx, f),
                        lambda: is_permutation_bruteforce(ctx, f),
                        lambda: inverse_table(ctx, f)):
                with pytest.raises(ValueError,
                                   match="^elements from different fields$"):
                    run()


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
    f = Poly.from_terms(q7, [(1, 1), (0, -1)])  # x - 1
    assert not cyclotomic_criterion(q7, 1, f)
    for ctx, other in ((q7, q9), (q9, q7)):
        with pytest.raises(ValueError, match="^elements from different fields$"):
            cyclotomic_criterion(ctx, 1, Poly.one(other))
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


# ---------------------------------------------------------------------------
# The published families.
# ---------------------------------------------------------------------------

def test_family_equals_theorem_route(q5, q7, q13):
    for ctx, degree in [(q5, 3), (q7, 3), (q7, 5), (q13, 5)]:
        for variant in ("P1", "P2"):
            for m in (-2, 0, 1, ctx.q - 3):
                for l in (0, 1, 2):
                    fam = family_poly(ctx, degree, variant, m, l)
                    spec = family_spec(ctx, degree, variant, m, l)
                    built, _ = build_perm_poly(spec)
                    assert fam == built, (ctx.q, variant, m, l)


def test_family_reduced_special_forms(q7):
    q = q7.q
    alpha = q7.alpha_from_l(2)
    # m = q-3 collapses the binomial P1 to x^{q-2} + 3 alpha x^{q^2-q-1}
    fam = family_poly(q7, 3, "P1", q - 3, 2)
    assert fam == Poly.from_terms(
        q7, [(q - 2, q7.one()), (q * q - q - 1, 3 * alpha)])
    # m = q-2: P1 becomes x^{2q-1} + 3 alpha x, P2 becomes 3x^q + alpha x^{q^2-q+1}
    fam = family_poly(q7, 3, "P1", q - 2, 2)
    assert fam == Poly.from_terms(
        q7, [(2 * q - 1, q7.one()), (1, 3 * alpha)])
    fam = family_poly(q7, 3, "P2", q - 2, 2)
    assert fam == Poly.from_terms(
        q7, [(q, q7.scalar(3)), (q * q - q + 1, alpha)])


def test_family_rejects_degenerate_characteristic(q3, q9, q25):
    with pytest.raises(ValueError):
        family_poly(q3, 3, "P1", 0, 0)
    with pytest.raises(ValueError):
        family_poly(q9, 3, "P2", 0, 0)
    with pytest.raises(ValueError):
        family_poly(q25, 5, "P1", 0, 0)


@pytest.mark.parametrize("degree, variant", [(3, "P3"), (4, "P1"), (5, "G")])
def test_family_outside_the_table_is_refused(q7, degree, variant):
    with pytest.raises(ValueError, match="no published family"):
        family_poly(q7, degree, variant, 0, 0)
    with pytest.raises(ValueError, match="no published family"):
        family_spec(q7, degree, variant, 0, 0)
    if variant == "P1":
        with pytest.raises(ValueError, match="no published family"):
            family_condition(7, degree, 0, 0)
        with pytest.raises(ValueError, match="no published family"):
            family_special_condition(7, degree, 0, 0)


def test_family_conditions_match_criterion():
    """The stated coprimality conditions coincide with the general criterion."""
    for q, k in [(5, 1), (7, 1), (11, 1), (13, 1)]:
        ctx = make_field(q, k)
        for m in range(-4, 6):
            for l in range(q + 2):
                want = check_criterion(
                    PermSpec("G", 3, m, ctx.alpha_from_l(l))).is_perm
                assert family_condition(q, 3, m, l) == want, (q, m, l)
    for q, k in [(3, 1), (7, 1), (9, 2), (13, 1)]:
        p = 3 if q == 9 else q
        ctx = make_field(p, k)
        for m in range(-4, 6):
            for l in range(q + 2):
                want = check_criterion(
                    PermSpec("H", 5, m, ctx.alpha_from_l(l))).is_perm
                assert family_condition(q, 5, m, l) == want, (q, m, l)


def test_special_conditions_match_general_onwide_integer_scan():
    """Congruence specialisations agree with the gcd forms for many q."""
    qs = [q for q in range(5, 200, 2)
          if all(q % d for d in range(2, q)) or q in (9, 25, 27, 49, 81, 121, 125, 169)]
    for q in qs:
        for l in (0, 1, 2, 3):
            if q % 3:
                for m in (q - 3, q - 2, 1, 0):
                    assert family_special_condition(q, 3, m, l) == \
                        family_condition(q, 3, m, l), ("binomial", q, m, l)
            if q % 5:
                for m in (q - 4, q - 3, 1, 0):
                    assert family_special_condition(q, 5, m, l) == \
                        family_condition(q, 5, m, l), ("trinomial", q, m, l)
    with pytest.raises(ValueError):
        family_special_condition(7, 3, 2, 0)
    with pytest.raises(ValueError):
        family_special_condition(7, 5, 2, 0)


def test_special_conditions_when_the_degree_divides_q():
    """Where the degree divides q the family degenerates: both conditions
    refuse with family_poly's error instead of answering."""
    for p, k, degree, m, l in [(3, 2, 3, 0, 1), (3, 2, 3, 0, 0), (5, 2, 5, 0, 1),
                               (3, 3, 3, 1, 1), (5, 3, 5, 122, 2)]:
        message = f"the degree-{degree} family needs the characteristic prime to"
        with pytest.raises(ValueError, match=message):
            family_condition(p ** k, degree, m, l)
        with pytest.raises(ValueError, match=message):
            family_special_condition(p ** k, degree, m, l)
        with pytest.raises(ValueError, match=message):
            family_poly(make_field(p, k), degree, "P1", m, l)


def test_family_conditions_against_bruteforce(q5, q9):
    for variant in ("P1", "P2"):
        for m in (0, 1, q5.q - 3, q5.q - 2):
            for l in range(q5.q + 1):
                fam = family_poly(q5, 3, variant, m, l)
                ok, _ = is_permutation_bruteforce(q5, fam)
                assert ok == family_condition(q5.q, 3, m, l), (variant, m, l)
        for m in (0, 1, q9.q - 4, q9.q - 3):
            for l in range(q9.q + 1):
                fam = family_poly(q9, 5, variant, m, l)
                ok, _ = is_permutation_bruteforce(q9, fam)
                assert ok == family_condition(q9.q, 5, m, l), (variant, m, l)


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
    assert count_valid_n(9, 0) == 4
    assert count_valid_n(27, 0) == 12
    assert count_valid_n(81, 0) == 32
    assert count_valid_n(243, 0) == 110


def test_count_matches_direct_filter():
    for q in (9, 27):
        for m in (-1, 0, 2):
            direct = [n for n in range(1, q)
                      if math.gcd(n * (n + 2 * m), q - 1) == 1]
            assert count_valid_n(q, m) == len(direct)


def test_count_ratio_near_half():
    for k in (2, 3, 4, 5):
        q = 3 ** k
        ratio = count_valid_n(q, 0) / (q - 1)
        assert 0.30 <= ratio <= 0.55
