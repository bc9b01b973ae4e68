"""poly_eval's coset fast path and the term sum, against a term loop.

A polynomial without constant term whose exponents all agree mod q-1 is
evaluated through a cached CosetMap; every other polynomial runs the term
sum _eval_terms, a Zech chain over the logs of its terms.  Both must agree
with a loop of add_packed, mul_packed and pow_packed calls, one of each per
term, at every point of every small field, x = 0 and constant terms
included.  The shape detection must refuse exactly the polynomials outside
the shape, inverse() must invert the map a CosetMap induces on mu_{q+1}
(sigma, computed here by Felt arithmetic) and equal scan's table at every
point, or be None exactly where scan finds a collision, permutes() must
agree with the gcd criterion and the oracle, and the digest of a
cyclotomic inverse must not fall back to the term sum per point.  A packed
point must give the packed value of the Felt path, a packed point outside
the field must be refused, and Poly.eval_range must make one positional
poly_eval call per packed point.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from redeiperm import (CosetMap, Felt, PermSpec, Poly, build_perm_poly,
                       check_criterion, coset_factor_table, gh_coeffs,
                       inverse_cyclotomic, is_permutation_bruteforce,
                       make_field, poly_eval, polyring)
from redeiperm.construct import scan
from redeiperm.inverse import _value_digest

# every odd prime power q with q^2 <= 2^12, as (p, k)
SMALL_FIELDS = [(p, 1) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                 41, 43, 47, 53, 59, 61)] + [(3, 2), (5, 2),
                                                             (3, 3), (7, 2)]
# the fields every differential test below covers: q = 3, 9, 25, 27, 49
REQUIRED_FIELDS = [(3, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def _term_loop(f: Poly, xv: int) -> int:
    """f at the packed point xv by three table calls per term."""
    ctx = f.ctx
    acc = 0
    add, mul, powp = ctx.add_packed, ctx.mul_packed, ctx.pow_packed
    for e, c in f.terms.items():
        acc = add(acc, mul(c.val, powp(xv, e)))
    return acc


def _agrees_with_term_loop(f: Poly) -> None:
    ctx = f.ctx
    for xv in range(ctx.q2):
        want = _term_loop(f, xv)
        assert polyring._eval_terms(f, xv) == want
        assert poly_eval(f, ctx.from_packed(xv)).val == want


@st.composite
def coset_polys(draw, fields):
    """x^e0 * g(x^(q-1)) in coefficient form: a random e0 >= 1, random
    multiples of q-1 (past q^2 too) and random nonzero coefficients."""
    ctx = make_field(*draw(st.sampled_from(fields)))
    q = ctx.q
    e0 = draw(st.integers(1, ctx.units))
    js = draw(st.lists(st.integers(0, 2 * (q + 1)), min_size=1, max_size=6))
    return Poly.from_terms(ctx, [(e0 + (q - 1) * j,
                                  ctx.from_packed(draw(st.integers(1, ctx.units))))
                                 for j in js])


@settings(max_examples=40)
@given(coset_polys(REQUIRED_FIELDS))
def test_coset_shaped_poly_matches_term_loop(f):
    if not f.is_zero():  # coefficients on one exponent may cancel
        assert CosetMap.from_poly(f) is not None
    _agrees_with_term_loop(f)
    assert f._coset is not None  # built once, on the first point


@settings(max_examples=25)
@given(coset_polys(SMALL_FIELDS))
def test_coset_shaped_poly_matches_term_loop_every_small_field(f):
    _agrees_with_term_loop(f)


@pytest.mark.parametrize("p,k", REQUIRED_FIELDS)
def test_cyclotomic_inverses_match_term_loop(p, k):
    ctx = make_field(p, k)
    checked = 0
    for variant in ("H", "G"):
        for n in (1, 3, 5):
            for m in (0, 1):
                for l in (0, 1):
                    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                    if not check_criterion(spec).is_perm:
                        continue
                    inv = inverse_cyclotomic(spec)
                    assert CosetMap.from_poly(inv) is not None
                    _agrees_with_term_loop(inv)
                    _, forward = build_perm_poly(spec)
                    assert all(poly_eval(inv, forward(a)) == a
                               for a in ctx.elements())
                    checked += 1
    assert checked > 0


@st.composite
def non_coset_polys(draw, fields):
    """A constant term, or two exponents apart mod q-1, or nothing at all."""
    ctx = make_field(*draw(st.sampled_from(fields)))
    q = ctx.q
    coeff = st.integers(1, ctx.units).map(ctx.from_packed)
    kind = draw(st.sampled_from(["constant", "mixed", "zero"]))
    if kind == "zero":
        return Poly(ctx, {})
    e0 = draw(st.integers(1, ctx.units))
    terms = [(e0 + (q - 1) * j, draw(coeff))
             for j in draw(st.lists(st.integers(0, q + 1), max_size=4))]
    if kind == "constant":
        terms.append((0, draw(coeff)))
    else:  # q = 3 has q-1 = 2, so an offset of 1 is always another residue
        offset = draw(st.integers(1, q - 2)) if q > 3 else 1
        terms += [(e0, draw(coeff)), (e0 + offset, draw(coeff))]
    return Poly(ctx, dict(terms))


@settings(max_examples=40)
@given(non_coset_polys(REQUIRED_FIELDS))
def test_other_polys_keep_the_term_loop(f):
    assert CosetMap.from_poly(f) is None
    _agrees_with_term_loop(f)
    assert f._coset is False
    assert poly_eval(f, f.ctx.zero()) == f.terms.get(0, 0)


@settings(max_examples=25)
@given(non_coset_polys(SMALL_FIELDS))
def test_other_polys_match_the_term_loop_every_small_field(f):
    _agrees_with_term_loop(f)


def test_cache_takes_no_part_in_equality(q9):
    f = Poly.from_terms(q9, [(3, 1), (11, 2)])
    g = Poly.from_terms(q9, [(11, 2), (3, 1)])
    poly_eval(f, q9.gamma)
    assert f._coset and g._coset is None
    assert f == g


def sigma_of(cm: CosetMap) -> list[int] | None:
    """sigma[s] with zeta^sigma[s] = b^e * T(b)^(q-1) at b = zeta^s, by Felt
    arithmetic: the map cm induces on mu_{q+1}; None when T has a 0."""
    ctx = cm.ctx
    q = ctx.q
    if 0 in cm.table:
        return None
    mu = ctx.mu(q + 1)  # zeta^s for s = 0..q
    where = {b.val: s for s, b in enumerate(mu)}
    return [where[(b ** cm.e * Felt(ctx, t) ** (q - 1)).val]
            for b, t in zip(mu, cm.table)]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_sigma_is_the_map_induced_on_mu(p, k):
    """inverse() exists exactly when gcd(e, q-1) = 1 and sigma, the
    Felt-level map on mu_{q+1}, permutes 0..q; then the inverse's own
    sigma inverts it.  A 0 entry of T leaves no inverse.  Random tables
    rarely permute, so each field also gets maps built from a permutation
    sigma."""
    ctx = make_field(p, k)
    q, N = ctx.q, ctx.units
    rng = random.Random(q)
    for _ in range(4):
        e = rng.randrange(-N, 2 * N)
        table = [rng.randrange(1, ctx.q2) for _ in range(q + 1)]
        sigma = sigma_of(CosetMap(ctx, e, table))
        permutes = math.gcd(e, q - 1) == 1 and sorted(sigma) == list(range(q + 1))
        assert (CosetMap(ctx, e, table).inverse() is not None) == permutes
        table[rng.randrange(q + 1)] = 0
        assert CosetMap(ctx, e, table).inverse() is None
        while math.gcd(e, q - 1) != 1:
            e = rng.randrange(-N, 2 * N)
        sigma = rng.sample(range(q + 1), q + 1)
        turns = [(q + 1) * rng.randrange(q - 1) for _ in sigma]
        cm = CosetMap(ctx, e, [ctx._exp[(sg - e * s + turn) % N]
                               for s, (sg, turn) in enumerate(zip(sigma, turns))])
        assert sigma_of(cm) == sigma
        back = sigma_of(cm.inverse())
        assert [back[sg] for sg in sigma] == list(range(q + 1))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_permutes_is_the_criterion_and_the_oracle(p, k):
    """permutes() of the CosetMap of every spec (H/G, every l, m in -2..2,
    n <= 2q+2 capped at 40 above q = 43) equals check_criterion, and on
    every 7th spec the oracle's verdict.  T does not depend on m, so one
    table serves the five m."""
    ctx = make_field(p, k)
    q, N = ctx.q, ctx.units
    top = 2 * q + 2 if q <= 43 else 40
    specs = 0
    for l, variant, n in itertools.product(range(q + 1), "HG", range(1, top + 1)):
        alpha = ctx.alpha_from_l(l)
        table = coset_factor_table(PermSpec(variant, n, 0, alpha))
        for m in range(-2, 3):
            spec = PermSpec(variant, n, m, alpha)
            cm = CosetMap(ctx, spec.r % N, table)
            assert cm.permutes() == check_criterion(spec).is_perm, spec
            if specs % 7 == 0:
                assert is_permutation_bruteforce(ctx, cm)[0] == cm.permutes()
            specs += 1


@st.composite
def agw_permutations(draw, fields=SMALL_FIELDS):
    """(map, sigma): a CosetMap with gcd(e, q-1) = 1 and T built from a
    random permutation sigma of 0..q, each entry turned by a random
    gamma^((q+1)k)."""
    ctx = make_field(*draw(st.sampled_from(fields)))
    q, N = ctx.q, ctx.units
    e = draw(st.integers(-N, N).filter(lambda v: math.gcd(v, q - 1) == 1))
    sigma = draw(st.permutations(range(q + 1)))
    turns = draw(st.lists(st.integers(0, q - 2), min_size=q + 1,
                          max_size=q + 1))
    return CosetMap(ctx, e, [ctx._exp[(sg - e * s + (q + 1) * k) % N]
                             for s, (sg, k) in enumerate(zip(sigma, turns))]), sigma


@settings(max_examples=60)
@given(agw_permutations(), st.data())
def test_permutes_refuses_a_zero_a_repeated_sigma_and_an_even_exponent(
        drawn, data):
    """A map built from a permutation sigma permutes; a zero entry of T, a
    repeated sigma value or an even e (sigma kept) leaves it no inverse and
    makes permutes() False, and the oracle agrees on each."""
    cm, sigma = drawn
    ctx = cm.ctx
    q1, N, exp, log = ctx.q + 1, ctx.units, ctx._exp, ctx._log
    assert sigma_of(cm) == sigma and cm.permutes()
    s1, s2 = data.draw(st.lists(st.integers(0, q1 - 1), min_size=2,
                                max_size=2, unique=True))
    zero = list(cm.table)
    zero[s1] = 0
    repeated = list(cm.table)  # sigma[s2] := sigma[s1], same turn
    repeated[s2] = exp[(log[cm.table[s2]] + sigma[s1] - sigma[s2]) % N]
    even = [exp[(log[t] - s) % N] for s, t in enumerate(cm.table)]
    broken = [CosetMap(ctx, cm.e, zero), CosetMap(ctx, cm.e, repeated),
              CosetMap(ctx, cm.e + 1, even)]
    assert sigma_of(broken[1]).count(sigma[s1]) == 2
    assert sigma_of(broken[2]) == sigma and broken[2].e % 2 == 0
    for f in [cm] + broken:
        assert is_permutation_bruteforce(ctx, f)[0] == f.permutes()
    assert all(f.inverse() is None for f in broken)
    assert not any(f.permutes() for f in broken)


@st.composite
def arbitrary_coset_maps(draw, fields):
    """A CosetMap with any e and any packed table, zero entries included."""
    ctx = make_field(*draw(st.sampled_from(fields)))
    e = draw(st.integers(-ctx.units, 2 * ctx.units))
    return CosetMap(ctx, e, draw(st.lists(st.integers(0, ctx.q2 - 1),
                                          min_size=ctx.q + 1, max_size=ctx.q + 1)))


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_inverse_is_scans_table_or_none_at_a_collision(p, k, data):
    """inverse() against scan at every point: None exactly when scan finds
    a collision, else equal to scan's inverse table everywhere.  Each
    example draws a map that permutes by construction and an arbitrary
    map."""
    permuting, _ = data.draw(agw_permutations([(p, k)]))
    for cm in (permuting, data.draw(arbitrary_coset_maps([(p, k)]))):
        table, collision = scan(cm.ctx, cm)
        inv = cm.inverse()
        assert (inv is None) == (collision is not None)
        if inv is not None:
            assert inv.eval_range(0, cm.ctx.q2) == table.tolist()


@st.composite
def maps_with_a_zero_or_a_repeated_sigma(draw, fields):
    """A map built from a permutation sigma, then given a 0 entry or a
    repeated sigma value (sigma[s2] := sigma[s1], same turn), or neither."""
    cm, sigma = draw(agw_permutations(fields))
    ctx = cm.ctx
    q1, N, exp, log = ctx.q + 1, ctx.units, ctx._exp, ctx._log
    s1, s2 = draw(st.lists(st.integers(0, q1 - 1), min_size=2, max_size=2,
                           unique=True))
    table = list(cm.table)
    how = draw(st.sampled_from(["kept", "zero", "repeated"]))
    if how == "zero":
        table[s1] = 0
    elif how == "repeated":
        table[s2] = exp[(log[table[s2]] + sigma[s1] - sigma[s2]) % N]
    return CosetMap(ctx, cm.e, table)


@settings(max_examples=200, deadline=None)
@given(st.one_of(maps_with_a_zero_or_a_repeated_sigma(SMALL_FIELDS),
                 arbitrary_coset_maps(SMALL_FIELDS)))
def test_permutes_is_whether_inverse_exists(cm):
    """permutes() answers exactly whether inverse() finds a map, over
    every field with q^2 <= 2^12: on maps built from a permutation sigma,
    the same with a 0 entry or a repeated sigma value, and arbitrary
    tables (0 entries included)."""
    assert cm.permutes() == (cm.inverse() is not None)


def test_permutes_builds_no_coset_map(monkeypatch):
    """permutes() answers from the inverse's table alone: it constructs no
    CosetMap, whether the map permutes or stops at a repeated sigma,
    while inverse() constructs exactly one for a permutation."""
    ctx = make_field(3, 3)
    q, N = ctx.q, ctx.units
    sigma = list(range(1, q + 1)) + [0]
    perm = CosetMap(ctx, 1, [ctx._exp[(sg - s) % N] for s, sg in enumerate(sigma)])
    repeated = CosetMap(ctx, 1, [ctx._exp[-s % N] for s in range(q + 1)][:-1] + [1])
    made = []
    real = CosetMap.__init__

    def counted(self, *args):
        made.append(args)
        real(self, *args)

    monkeypatch.setattr(CosetMap, "__init__", counted)
    assert perm.permutes() and not repeated.permutes()
    assert made == []
    assert perm.inverse() is not None and repeated.inverse() is None
    assert len(made) == 1


def test_a_table_of_the_wrong_length_is_refused(q9):
    for size in (0, q9.q, q9.q + 2, q9.q + 5):
        with pytest.raises(ValueError, match=f"q\\+1 = 10 entries, not {size}"):
            CosetMap(q9, 1, [1] * size)


def test_a_table_entry_outside_the_field_is_refused(q9):
    """Every entry must be a packed value 0..q^2-1: -1 would read _log[-1],
    and 81 would fail as a bare IndexError."""
    for bad, table in ((-1, [-1] * 10), (81, [0] * 9 + [81]),
                       (-5, [80, -5, 81] + [1] * 7)):
        with pytest.raises(ValueError,
                           match=f"^coset table entry {bad} is not a packed "
                                 f"value 0..80$"):
            CosetMap(q9, 1, table)
    assert CosetMap(q9, 1, [0] * 9 + [80]).table[-1] == 80


def test_cyclotomic_digest_runs_the_term_loop_only_to_cross_check(monkeypatch):
    """The digest of a cyclotomic inverse on F_{81^2} evaluates q^2 points,
    but the term sum only runs at the q+1 points that build the table."""
    ctx = make_field(3, 4)
    inv = inverse_cyclotomic(PermSpec("H", 13, 0, ctx.alpha_from_l(1)))
    assert len(inv.terms) == 25
    calls = {"poly_eval": 0, "term_loop": 0}
    real_eval, real_terms = polyring.poly_eval, polyring._eval_terms

    def counted_eval(f, x):
        calls["poly_eval"] += 1
        return real_eval(f, x)

    def counted_terms(f, xv):
        calls["term_loop"] += 1
        return real_terms(f, xv)

    monkeypatch.setattr(polyring, "poly_eval", counted_eval)
    monkeypatch.setattr(polyring, "_eval_terms", counted_terms)
    _value_digest(ctx, inv)
    assert calls == {"poly_eval": ctx.q2, "term_loop": ctx.q + 1}


def _packed_path_polys(ctx):
    """A cyclotomic inverse (the coset path), G_n plus a constant term (the
    term sum) and the zero Poly."""
    spec = next(s for n in (1, 3, 5, 7) for l in (0, 1, 2)
                if check_criterion(s := PermSpec("H", n, 0,
                                                 ctx.alpha_from_l(l))).is_perm)
    g = gh_coeffs(3, ctx.alpha_from_l(1)).g
    return (inverse_cyclotomic(spec),
            Poly.from_terms(ctx, [*g.terms.items(), (0, ctx.one())]),
            Poly(ctx, {}))


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2)])
def test_a_packed_point_gives_the_packed_value_of_the_felt_path(p, k):
    ctx = make_field(p, k)
    inv, g_plus_one, zero = _packed_path_polys(ctx)
    for f in (inv, g_plus_one, zero):
        for xv in range(ctx.q2):
            v = poly_eval(f, xv)
            assert type(v) is int
            assert v == poly_eval(f, Felt(ctx, xv)).val
    assert inv._coset and g_plus_one._coset is False and zero._coset is False


@pytest.mark.parametrize("xv", [-1, 81, 86])
def test_a_packed_point_outside_the_field_is_refused(q9, xv):
    for f in _packed_path_polys(q9):
        with pytest.raises(ValueError, match=rf"packed point is an int in "
                                             rf"0\.\.80, not {xv}$"):
            poly_eval(f, xv)


def test_eval_range_makes_one_positional_int_call_per_point(q9, monkeypatch):
    calls = []
    real = polyring.poly_eval

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(polyring, "poly_eval", recorded)
    for f in _packed_path_polys(q9):
        calls.clear()
        values = f.eval_range(3, 40)
        assert calls == [((f, xv), {}) for xv in range(3, 40)]
        assert all(type(args[1]) is int for args, _ in calls)
        assert values == [real(f, Felt(q9, xv)).val for xv in range(3, 40)]
