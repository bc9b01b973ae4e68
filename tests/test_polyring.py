"""Sparse polynomials: construction, evaluation, division, gcd, reduction."""

import pytest
from hypothesis import given, strategies as st

from redeiperm import (Felt, Poly, make_field, poly_divmod, poly_eval,
                       poly_gcd, reduce_functional, render_poly)


def _random_poly(ctx, draw_pairs):
    return Poly.from_terms(ctx, [(e, ctx.from_packed(v)) for e, v in draw_pairs])


def _add(f, g):
    return Poly.from_terms(f.ctx, [*f.terms.items(), *g.terms.items()])


def _mul(f, g):
    """The ring product, term by term: the reference for division and gcd."""
    return Poly.from_terms(f.ctx, [(e1 + e2, c1 * c2)
                                   for e1, c1 in f.terms.items()
                                   for e2, c2 in g.terms.items()])


pairs_strategy = st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 80)), max_size=6)


def test_construction_merges_and_validates(q9):
    one = q9.one()
    f = Poly.from_terms(q9, [(2, one), (2, one), (0, one)])
    assert f.terms[2] == q9.scalar(2)
    assert f.degree() == 2
    g = Poly.from_terms(q9, [(3, one), (3, -one)])
    assert g.is_zero() and g.degree() == -1
    with pytest.raises(ValueError):
        Poly.from_terms(q9, [(-1, one)])
    with pytest.raises(ValueError):
        Poly.from_terms(q9, [(-2, 1)])
    with pytest.raises(ValueError, match="^exponents must be non-negative$"):
        Poly(q9, {2: one, -1: one})
    with pytest.raises(ValueError):
        Poly(q9, {}).leading()


def test_basic_shapes(q9):
    x = Poly.from_terms(q9, [(1, 1)])
    assert x.degree() == 1 and x.terms[1] == 1
    assert Poly.one(q9).degree() == 0
    assert _add(_mul(x, x), x).to_pairs() == [(1, [1, 0, 0, 0]),
                                             (2, [1, 0, 0, 0])]


def test_eval_conventions(q9):
    f = Poly.from_terms(q9, [(0, q9.scalar(2)), (3, q9.one())])
    assert poly_eval(f, q9.zero()) == 2  # constant term at x = 0
    assert f(q9.one()) == 3 * q9.one()
    assert poly_eval(Poly(q9, {}), q9.gamma) == 0


@given(pairs_strategy, pairs_strategy)
def test_divmod_identity(fp, gp):
    ctx = make_field(3, 2)
    f, g = _random_poly(ctx, fp), _random_poly(ctx, gp)
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            poly_divmod(f, g)
        return
    quo, rem = poly_divmod(f, g)
    assert _add(_mul(quo, g), rem) == f
    assert rem.degree() < g.degree()


@given(pairs_strategy, pairs_strategy)
def test_gcd_properties(fp, gp):
    ctx = make_field(3, 2)
    f, g = _random_poly(ctx, fp), _random_poly(ctx, gp)
    if f.is_zero() and g.is_zero():
        with pytest.raises(ValueError):
            poly_gcd(f, g)
        return
    d = poly_gcd(f, g)
    assert d.leading() == 1  # monic
    if not f.is_zero():
        assert poly_divmod(f, d)[1].is_zero()
    if not g.is_zero():
        assert poly_divmod(g, d)[1].is_zero()


def test_gcd_known_values(q9):
    x = Poly.from_terms(q9, [(1, 1)])
    x1 = _add(x, Poly.one(q9))
    f = _mul(_mul(x1, x1), x)
    g = _mul(_mul(x1, x), x)
    assert poly_gcd(f, g) == _mul(x1, x)
    assert poly_gcd(f, Poly(q9, {})) == f.monic()


def test_reduce_functional_exponent_map(q9):
    N = q9.units

    def monomial(e):
        return Poly.from_terms(q9, [(e, 1)])

    x = monomial(1)
    assert reduce_functional(monomial(q9.q2)) == x
    assert reduce_functional(monomial(N)) == monomial(N)
    assert reduce_functional(monomial(N + 1)) == x
    assert reduce_functional(x) == x
    c = Poly.from_terms(q9, [(0, q9.gamma)])
    assert reduce_functional(c) == c  # constants survive unchanged


def test_reduce_functional_preserves_evaluation(q3, q9):
    for ctx in (q3, q9):
        f = Poly.from_terms(ctx, [
            (ctx.q2 + 3, ctx.gamma), (ctx.units, ctx.one()),
            (2, ctx.scalar(2)), (0, ctx.one())])
        r = reduce_functional(f)
        assert all(0 <= e <= ctx.units for e in r.terms)
        for a in ctx.elements():
            assert poly_eval(f, a) == poly_eval(r, a)


def test_reduce_functional_merges_collisions(q9):
    N = q9.units
    f = Poly.from_terms(q9, [(1, q9.one()), (N + 1, q9.one())])
    r = reduce_functional(f)
    assert r == Poly.from_terms(q9, [(1, q9.scalar(2))])
    g = Poly.from_terms(q9, [(1, q9.one()), (N + 1, -q9.one())])
    assert reduce_functional(g).is_zero()


def test_render(q11, q9):
    x = Poly.from_terms(q11, [(1, 1)])
    f = Poly.from_terms(q11, [(23, 3), (3, 1)])
    assert render_poly(f) == "3*x^23 + x^3"
    assert render_poly(Poly(q11, {})) == "0"
    assert render_poly(Poly.one(q11)) == "1"
    assert render_poly(x) == "x"
    assert render_poly(_add(x, Poly.one(q11))) == "x + 1"
    g = Poly.from_terms(q9, [(2, q9.gamma), (0, 1)])
    assert render_poly(g) == "(0,0,1,1)*x^2 + 1"
    h = Poly.from_terms(q11, [(2, q11.gamma)])
    assert render_poly(h) == "(1,4)*x^2"


def test_to_pairs_is_ascending_and_faithful(q9):
    f = Poly.from_terms(q9, [(7, q9.gamma), (0, q9.one()), (3, q9.scalar(2))])
    pairs = f.to_pairs()
    assert [e for e, _ in pairs] == [0, 3, 7]
    rebuilt = Poly.from_terms(  # a coefficient vector is base-p digits
        q9, [(e, Felt(q9, sum(d * 3 ** i for i, d in enumerate(c))))
             for e, c in pairs])
    assert rebuilt == f


def test_poly_equality_covers_ctx(q3, q9):
    assert Poly.from_terms(q3, [(1, 1)]) != Poly.from_terms(q9, [(1, 1)])
    assert Poly.from_terms(q3, [(1, 1)]) == Poly.from_terms(q3, [(1, 1)])


def test_a_coefficient_from_another_field_is_refused(q9, q25):
    for value in (5, 600):  # 600 lies past the end of q9's tables
        with pytest.raises(ValueError, match="elements from different fields"):
            Poly.from_terms(q9, [(1, q25.from_packed(value))])
        with pytest.raises(ValueError, match="elements from different fields"):
            Poly(q9, {0: q9.one(), 2: q25.from_packed(value)})
