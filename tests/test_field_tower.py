"""Field construction, table arithmetic, Frobenius, roots of unity, square roots.

The frozen moduli and generators below were confirmed against an independent
implementation (sympy irreducibility plus repeated-multiplication order); the
in-file oracles re-derive the small cases from scratch so a regression in the
construction search cannot hide.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from redeiperm import Felt, field_from_record, make_field


# ---------------------------------------------------------------------------
# In-file oracles, independent of the package internals.
# ---------------------------------------------------------------------------

def _oracle_irreducible(f: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            # long division remainder of f by g over F_p
            rem = list(f)
            while len(rem) - 1 >= d and any(rem):
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) - 1 < d:
                    break
                c = rem[-1]
                shift = len(rem) - 1 - d
                for j, gj in enumerate(g):
                    rem[shift + j] = (rem[shift + j] - c * gj) % p
            if not any(rem):
                return False
    return True


def _oracle_first_modulus(p: int, k: int) -> list[int]:
    for tail in itertools.product(range(p), repeat=2 * k):
        f = list(tail) + [1]
        if _oracle_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


FROZEN_FIELDS = {
    # (p, k): (modulus low-to-high, gamma coefficients)
    (3, 1): ([1, 0, 1], [1, 1]),
    (5, 1): ([1, 1, 1], [1, 3]),
    (7, 1): ([1, 0, 1], [1, 2]),
    (11, 1): ([1, 0, 1], [1, 4]),
    (13, 1): ([1, 3, 1], [1, 6]),
    (3, 2): ([1, 0, 1, 1, 1], [0, 0, 1, 1]),
    (5, 2): ([1, 0, 1, 1, 1], [0, 0, 1, 1]),
}


@pytest.mark.parametrize("p,k", sorted(FROZEN_FIELDS))
def test_frozen_construction(p, k):
    ctx = make_field(p, k)
    modulus, gamma = FROZEN_FIELDS[(p, k)]
    assert list(ctx.modulus) == modulus
    assert ctx.gamma.to_coeffs() == gamma
    assert ctx.q == p ** k
    assert ctx.q2 == p ** (2 * k)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_modulus_is_first_irreducible(p, k):
    ctx = make_field(p, k)
    assert list(ctx.modulus) == _oracle_first_modulus(p, k)


def test_gamma_is_first_primitive(q9):
    # every lexicographically smaller nonzero element has smaller order
    N = q9.units
    gv = q9.gamma.val
    for v in range(1, q9.q2):
        a = q9.from_packed(v)
        if a.coeffs >= q9.gamma.coeffs:
            continue
        order = 1
        acc = a
        while acc != 1:
            acc = acc * a
            order += 1
        assert order < N, f"{a!r} is primitive and precedes gamma"
    acc, order = q9.gamma, 1
    while acc != 1:
        acc = acc * q9.gamma
        order += 1
    assert order == N
    assert gv == q9._exp[1]


def test_zech_addition_matches_componentwise(q3, q9):
    for ctx in (q3, q9):
        for av in range(ctx.q2):
            for bv in range(ctx.q2):
                assert ctx.add_packed(av, bv) == ctx._add_digits(av, bv)


def test_field_axioms_exhaustive_small(q3):
    elems = list(q3.elements())
    for a in elems:
        assert a + 0 == a and a * 1 == a and a * 0 == 0
        assert a - a == 0 and -(-a) == a
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
    one = q3.one()
    for a in elems:
        if a.val:
            assert a * a.inv() == one


@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_field_axioms_random(av, bv, cv):
    ctx = make_field(3, 2)
    a, b, c = ctx.from_packed(av), ctx.from_packed(bv), ctx.from_packed(cv)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_pow_and_div_edges(q9):
    zero, one = q9.zero(), q9.one()
    assert zero ** 0 == one
    assert one ** (-5) == one
    with pytest.raises(ZeroDivisionError):
        zero ** (-1)
    with pytest.raises(ZeroDivisionError):
        zero.inv()
    with pytest.raises(ZeroDivisionError):
        one / zero
    with pytest.raises(ZeroDivisionError):
        zero.log()
    a = q9.gamma
    assert a ** (-3) == (a ** 3).inv()
    assert a ** q9.units == one


def test_frobenius_is_order_two_field_automorphism(q9):
    fixed = 0
    for a in q9.elements():
        b = a.frobenius_q()
        assert b.frobenius_q() == a
        if b == a:
            fixed += 1
        assert (a * a).frobenius_q() == b * b
    # the fixed field is the subfield with q elements
    assert fixed == q9.q
    for a in q9.elements():
        for b in q9.elements():
            if a.val < b.val:
                assert (a + b).frobenius_q() == a.frobenius_q() + b.frobenius_q()
                break


def test_mu_subgroups(q9):
    N = q9.units
    mu = q9.mu(q9.q + 1)
    assert len(mu) == q9.q + 1
    assert len({b.val for b in mu}) == q9.q + 1
    for b in mu:
        assert b ** (q9.q + 1) == 1
        assert b.in_mu(q9.q + 1)
        # norm-1 characterisation: b^q = b^{-1}
        assert b.frobenius_q() == b.inv()
    count = sum(1 for a in q9.elements() if a.val and a.in_mu(q9.q + 1))
    assert count == 10
    assert len(q9.mu(N)) == N
    with pytest.raises(ValueError):
        q9.mu(7)
    with pytest.raises(ValueError):
        q9.one().in_mu(3)


def test_sqrt_matches_exhaustive_search(q3, q9):
    for ctx in (q3, q9):
        for a in ctx.elements():
            roots = ctx.sqrt(a)
            expected = sorted(b.val for b in ctx.elements() if b * b == a)
            assert sorted(r.val for r in roots) == expected
            if len(roots) == 2:
                assert roots[0].coeffs <= roots[1].coeffs
                assert roots[1] == -roots[0]


def test_sqrt_edge_cases(q9):
    assert q9.sqrt(q9.zero()) == (q9.zero(),)
    assert q9.sqrt(q9.one())[0] == 1
    # gamma generates the units, so it is a non-square
    assert q9.sqrt(q9.gamma) == ()
    with pytest.raises(ValueError):
        q9.sqrt(make_field(3, 1).one())


def test_alpha_from_l(q9):
    q = q9.q
    for l in range(2 * (q + 1)):
        alpha = q9.alpha_from_l(l)
        assert alpha.in_mu(q + 1)
        assert alpha == q9.zeta ** l
        assert q9.alpha_from_l(l + q + 1) == alpha
    # zeta itself has exact order q+1
    assert q9.zeta ** (q + 1) == 1
    assert q9.zeta ** ((q + 1) // 2) != 1


def test_scalar_ring_map(q7):
    # q+1 reduces to 1 modulo p, so (q+1)*1 = 1 in the field
    assert q7.scalar(q7.q + 1) == q7.one()
    assert q7.scalar(-1) == q7.neg_one()
    assert q7.scalar(7) == q7.zero()
    assert 3 * q7.one() + 4 == q7.zero()


def test_cross_field_operations_rejected(q3, q9):
    with pytest.raises(ValueError):
        q3.one() + q9.one()
    with pytest.raises(ValueError):
        q3.gamma * q9.gamma


def test_coeff_packing_roundtrip(q9):
    for a in q9.elements():
        assert q9.from_coeffs(a.to_coeffs()) == a
    assert q9.from_coeffs([4, -1]) == q9.from_coeffs([1, 2])
    with pytest.raises(ValueError):
        q9.from_coeffs([0] * 5)
    with pytest.raises(ValueError):
        q9.from_packed(81)


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(2, 1)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(3, 0)
    with pytest.raises(ValueError):
        make_field(3, 4, size_bound=1000)


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)


def test_record_roundtrip(q9):
    rec = q9.to_record()
    assert field_from_record(rec) is q9
    bad = dict(rec, gamma=[1, 0, 0, 0])
    with pytest.raises(ValueError):
        field_from_record(bad)
    bad = dict(rec, modulus=[2, 0, 1, 1, 1])
    with pytest.raises(ValueError):
        field_from_record(bad)


def test_felt_equality_and_hash(q9, q11):
    a = q9.scalar(2)
    assert a == 2 and a == q9.scalar(2)
    assert a != q9.scalar(1)
    assert hash(a) == hash(q9.scalar(2))
    assert len({q9.one(), q9.one(), q9.zero()}) == 2
    # only the canonical scalar 0 <= c < p compares equal, so hashes agree
    assert q11.one() == 1 and q11.one() != 12 and q11.neg_one() != -1
    assert len({q11.one(), 1}) == 1 and len({q9.zero(), 0, q9.one()}) == 2
    assert repr(q9.from_coeffs([1, 2])) == "Felt(1, 2, 0, 0)"
