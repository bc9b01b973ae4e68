"""Compositional inverses by three routes: coefficient formula over the
coset decomposition, closed form on mu_{q+1} lifted to the field, and the
exhaustive value table.  The routes share no arithmetic beyond the field
tables, so agreement is strong evidence of correctness; composition with
the forward map is still checked directly."""


import pytest

from redeiperm import (CosetMap, InverseTable, PermSpec, Poly,
                       agreement_report, bezout, build_perm_poly,
                       check_criterion, cli, field_tower,
                       gh_eval, inverse, inverse_cyclotomic, inverse_table,
                       is_permutation_bruteforce, lift_inverse, make_field,
                       mu_inverse, mu_inverse_eval, poly_eval)


def _forward_on_mu(spec):
    """The induced map y -> y^n F(y)^{q-1} on mu_{q+1}."""
    ctx = spec.ctx
    q = ctx.q

    def g(y):
        gv, hv = gh_eval(spec.n, spec.alpha, y)
        f = hv if spec.variant == "H" else gv
        return y ** spec.n * f ** (q - 1)

    return g


def test_bezout_frozen_values(q9, q7):
    b = bezout(PermSpec("H", 3, 0, q9.alpha_from_l(0)))
    assert (b.r, b.r_prime, b.t) == (3, 3, -1)
    assert b.n1 == 11 and b.n2 == 7 and b.r_prime_full == 27
    b = bezout(PermSpec("H", 3, 0, q7.alpha_from_l(1)))
    assert b.r == 3 and b.n2 == 11
    assert b.r_prime is None and b.t is None  # gcd(3, 6) = 3
    assert b.n1 is None  # gcd(3, 12) = 3
    assert b.r_prime_full is None  # gcd(3, 48) = 3
    rec = b.to_record()
    assert rec["n2"] == 11 and rec["r_prime"] is None


def test_bezout_identities_hold(q9):
    for n in (1, 3, 5, 7, 11):
        for m in (-2, 0, 1, 3):
            b = bezout(PermSpec("H", n, m, q9.alpha_from_l(2)))
            if b.r_prime is not None:
                assert (b.r * b.r_prime + (q9.q - 1) * b.t) == 1
            if b.n1 is not None:
                assert (n * b.n1) % (2 * (q9.q - 1)) == 1
            if b.n2 is not None:
                assert (n * b.n2) % (2 * (q9.q + 1)) == 1
            if b.r_prime_full is not None:
                assert (b.r * b.r_prime_full) % q9.units == 1


# ---------------------------------------------------------------------------
# Coefficient-formula route.
# ---------------------------------------------------------------------------

def test_cyclotomic_inverse_of_identity(q9):
    spec = PermSpec("H", 1, 0, q9.alpha_from_l(0))  # P(x) = x
    inv = inverse_cyclotomic(spec)
    assert inv == Poly.from_terms(q9, [(1, 1)])


def test_cyclotomic_inverse_composes_to_identity(q3, q5):
    for ctx in (q3, q5):
        for l in range(ctx.q + 1):
            for variant in ("H", "G"):
                for n in (1, 3, 5):
                    for m in (-1, 0, 1):
                        spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                        if not check_criterion(spec).is_perm:
                            continue
                        inv = inverse_cyclotomic(spec)
                        _, ev = build_perm_poly(spec)
                        for a in ctx.elements():
                            assert poly_eval(inv, ev(a)) == a
                        assert poly_eval(inv, ctx.zero()) == 0


def test_cyclotomic_inverse_exponent_form(q5):
    spec = PermSpec("H", 3, 0, q5.alpha_from_l(2))
    assert check_criterion(spec).is_perm
    inv = inverse_cyclotomic(spec)
    assert all(1 <= e <= q5.units for e in inv.terms)
    assert len(inv.terms) <= q5.q + 1


def test_cyclotomic_inverse_rejects_non_permutation(q7):
    spec = PermSpec("H", 3, 0, q7.alpha_from_l(0))  # gcd(9, 6) = 3
    with pytest.raises(ValueError):
        inverse_cyclotomic(spec)


# ---------------------------------------------------------------------------
# Closed form on mu_{q+1}.
# ---------------------------------------------------------------------------

CASE_SPECS = [
    # (fixture, variant, n, m, l, expected case); all liftable to the field
    ("q9", "H", 3, 0, 2, "I1"),
    ("q9", "H", 7, 0, 2, "I1"),
    ("q7", "H", 5, 0, 1, "I2"),
    ("q9", "G", 3, 1, 0, "I3"),
    ("q7", "G", 5, 0, 1, "I4"),
]

# permutations whose mu-level inverse exists even though the lift refuses:
# gcd(n, q+1) > 1 while gcd(n, 2(q-1)) = 1
MU_ONLY_SPECS = [("q9", "H", 5, 0, 2, "I1"), ("q9", "G", 5, 0, 0, "I3")]


@pytest.mark.parametrize("fixture,variant,n,m,l,case",
                         CASE_SPECS + MU_ONLY_SPECS)
def test_mu_inverse_inverts_on_mu(fixture, variant, n, m, l, case, request):
    ctx = request.getfixturevalue(fixture)
    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
    assert check_criterion(spec).is_perm
    inv = mu_inverse(spec)
    assert inv.case == case
    g = _forward_on_mu(spec)
    mu = ctx.mu(ctx.q + 1)
    values = set()
    for y in mu:
        iy = mu_inverse_eval(inv, y)
        assert iy.in_mu(ctx.q + 1)
        assert g(iy) == y
        values.add(iy.val)
    assert len(values) == ctx.q + 1  # a bijection of mu


def test_mu_inverse_case_dispatch(q9, q7):
    assert mu_inverse(PermSpec("H", 3, 0, q9.alpha_from_l(2))).case == "I1"
    assert mu_inverse(PermSpec("H", 5, 0, q7.alpha_from_l(1))).case == "I2"
    assert mu_inverse(PermSpec("G", 3, 0, q9.alpha_from_l(2))).case == "I3"
    assert mu_inverse(PermSpec("G", 5, 0, q7.alpha_from_l(1))).case == "I4"


def test_mu_inverse_requires_solvable_congruence(q7):
    # gcd(3, 2(q-1)) = 3, so no n1 exists in the root-in case
    with pytest.raises(ValueError, match="gcd"):
        mu_inverse(PermSpec("H", 3, 0, q7.alpha_from_l(0)))


def test_mu_inverse_rejects_even_n(q9):
    with pytest.raises(ValueError):
        mu_inverse(PermSpec("H", 4, 0, q9.alpha_from_l(2)))


def test_mu_inverse_sqrt_choice(q9):
    spec = PermSpec("H", 5, 0, q9.alpha_from_l(2))
    inv_r = mu_inverse(spec)
    inv_s = inv_r._replace(sqrt_alpha=-inv_r.sqrt_alpha)
    assert (inv_r.sqrt_alpha, inv_s.sqrt_alpha) == q9.sqrt(spec.alpha)
    for y in q9.mu(q9.q + 1):
        assert mu_inverse_eval(inv_r, y) == mu_inverse_eval(inv_s, y)


def test_mu_inverse_special_value(q9):
    """The point alpha^{1-n/2} maps to sqrt(alpha), with signs respected."""
    for n, l in ((3, 2), (5, 2)):
        spec = PermSpec("H", n, 0, q9.alpha_from_l(l))
        inv = mu_inverse(spec)
        s = inv.sqrt_alpha
        x0 = s ** (2 - n)
        assert mu_inverse_eval(inv, x0) == s
        assert mu_inverse_eval(inv, -x0) == -s


def test_mu_inverse_eval_requires_mu(q9):
    inv = mu_inverse(PermSpec("H", 3, 0, q9.alpha_from_l(2)))
    with pytest.raises(ValueError):
        mu_inverse_eval(inv, q9.gamma)


def test_mu_inverse_eval_refuses_a_point_of_another_field(q9, q25):
    inv = mu_inverse(PermSpec("H", 3, 0, q9.alpha_from_l(2)))
    for x in (q25.from_packed(7), q25.alpha_from_l(1), q25.one()):
        with pytest.raises(ValueError, match="^elements from different fields$"):
            mu_inverse_eval(inv, x)


def test_every_point_evaluator_refuses_a_point_of_another_field(q9, q25):
    """The forward CosetMap, the coefficient Poly (coset-shaped and not) and
    the InverseTable each refuse a point of another field, either way round;
    without the check they returned an element of that field or raised a
    bare IndexError."""
    for ctx, other in ((q9, q25), (q25, q9)):
        poly, cm = build_perm_poly(PermSpec("H", 5, 0, ctx.alpha_from_l(2)))
        maps = (cm, poly, inverse_table(ctx, cm),
                Poly.from_terms(ctx, [(2, 1), (1, 1)]))
        for f in maps:
            for xv in (0, 7, other.q2 - 1):
                with pytest.raises(ValueError,
                                   match="^elements from different fields$"):
                    f(other.from_packed(xv))
        with pytest.raises(ValueError, match="^elements from different fields$"):
            poly_eval(poly, other.one())


# ---------------------------------------------------------------------------
# Lift to the whole field.
# ---------------------------------------------------------------------------

def test_lift_inverse_of_identity(q9):
    spec = PermSpec("H", 1, 0, q9.alpha_from_l(0))
    lifted = lift_inverse(spec)
    for a in q9.elements():
        assert lifted(a) == a


@pytest.mark.parametrize("fixture,variant,n,m,l,case", CASE_SPECS)
def test_lift_inverse_composes_to_identity(fixture, variant, n, m, l, case,
                                           request):
    ctx = request.getfixturevalue(fixture)
    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
    _, ev = build_perm_poly(spec)
    lifted = lift_inverse(spec)
    for v in range(ctx.q2):
        assert lifted.eval_packed(ev.eval_packed(v)) == v


def test_lift_inverse_refuses_unsolvable_exponent(q9):
    # passes the criterion but gcd(n, q+1) = 5 blocks the closed-form lift
    spec = PermSpec("G", 5, 0, q9.alpha_from_l(0))
    assert check_criterion(spec).is_perm
    with pytest.raises(ValueError, match=r"gcd\(n, q\+1\)"):
        lift_inverse(spec)
    # the other two routes still agree for this spec
    report = agreement_report(spec)
    assert report["agree"]
    assert set(report["routes"]) == {"cyclotomic", "table"}
    assert "closed" in report["skipped"]


def test_lift_inverse_requires_permutation(q7):
    with pytest.raises(ValueError):
        lift_inverse(PermSpec("H", 3, 0, q7.alpha_from_l(0)))


# ---------------------------------------------------------------------------
# Table route and the agreement report.
# ---------------------------------------------------------------------------

def test_inverse_table_roundtrip(q5):
    spec = PermSpec("H", 3, 0, q5.alpha_from_l(2))
    _, ev = build_perm_poly(spec)
    table = inverse_table(q5, ev)
    for a in q5.elements():
        assert table(ev(a)) == a


def test_inverse_table_rejects_collisions(q25):
    cube = Poly.from_terms(q25, [(3, 1)])  # gcd(3, q^2-1) = 3: not a permutation
    with pytest.raises(ValueError, match="both map to"):
        inverse_table(q25, cube)


def test_an_inverse_table_of_the_wrong_length_is_refused(q9):
    """InverseTable(q9, [-1] * 5) raised a bare IndexError at the point 7;
    it is now refused when it is built."""
    with pytest.raises(ValueError, match=r"^an inverse table has q\^2 = 81 "
                                         r"entries, not 5$"):
        InverseTable(q9, [-1] * 5)


def test_an_inverse_table_entry_outside_the_field_is_refused_when_read(q9):
    """A -1 entry came back at the point 2 as an element holding a packed
    -1.  An entry outside 0..q^2-1 is now refused at the point that reads
    it, so building the table costs no pass over it."""
    values = list(range(q9.q2))
    values[2], values[7] = -1, q9.q2
    table = InverseTable(q9, values)
    for point, entry in ((2, -1), (7, 81)):
        with pytest.raises(ValueError, match=rf"^inverse table entry {entry} "
                                             r"is not a packed value 0\.\.80$"):
            table(q9.from_packed(point))
    assert table(q9.from_packed(3)) == q9.from_packed(3)


def test_oracle_and_table_name_the_same_collision(q25):
    cube = Poly.from_terms(q25, [(3, 1)])
    ok, (a, b) = is_permutation_bruteforce(q25, cube)
    assert not ok
    with pytest.raises(ValueError) as exc:
        inverse_table(q25, cube)
    assert str(exc.value) == (f"not a bijection: inputs {a!r} and {b!r} "
                              f"both map to {a ** 3!r}")


def test_agreement_report_full(q9):
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    report = agreement_report(spec)
    assert report["agree"]
    assert set(report["routes"]) == {"cyclotomic", "closed", "table"}
    digests = set(report["routes"].values())
    assert len(digests) == 1
    digest = digests.pop()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert report["skipped"] == {}
    assert report["spec"]["n"] == 3


def test_agreement_report_pins_the_digest_bytes():
    """Every route is hashed through one inverse._little_endian, so a slip
    in the byte layout would still agree with itself: on F_{243^2}, byte
    width 2, the three digests equal one pinned value."""
    ctx = make_field(3, 5)
    report = agreement_report(PermSpec("H", 15, 1, ctx.alpha_from_l(1)))
    assert report["routes"] == dict.fromkeys(inverse.ROUTES, (
        "2355e2ea3ccdb0e23e9d411918e86f700a63989b97cce65886fe38669613ece8"))
    assert report["agree"]


def test_agreement_report_subset_of_routes(q9):
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    report = agreement_report(spec, routes=("cyclotomic", "table"))
    assert report["agree"] and set(report["routes"]) == {"cyclotomic", "table"}


def test_agreement_report_refuses_an_unknown_route_before_any_work(
        q9, monkeypatch):
    calls = []
    real = inverse.perm_coset_map
    monkeypatch.setattr(inverse, "perm_coset_map",
                        lambda spec: calls.append(spec) or real(spec))
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    with pytest.raises(ValueError, match="unknown route 'tabel'"):
        agreement_report(spec, routes=("closed", "tabel"))
    assert calls == []


@pytest.mark.parametrize("routes,built", [(("closed",), 1), (("cyclotomic",), 1),
                                          (("table",), 1), (inverse.ROUTES, 1)])
def test_agreement_report_builds_the_forward_map_only_for_the_table_route(
        q9, monkeypatch, routes, built):
    """The report builds P's coset map once, whatever the routes, and every
    route reads that map: the table route scans it, and inverse_cyclotomic
    and lift_inverse certify it and read its coset table."""
    calls = []
    real = inverse.perm_coset_map
    monkeypatch.setattr(inverse, "perm_coset_map",
                        lambda spec: calls.append(spec) or real(spec))
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    assert agreement_report(spec, routes=routes)["agree"]
    assert calls == [spec] * built


def test_agreement_report_calls_each_route_constructor_by_its_module_name(
        q9, monkeypatch):
    """The benchmark's tracer replaces the three route constructors as
    attributes of inverse and reads the spec (the field for the table) as
    their first argument: the report calls each one once through that
    attribute, with that first argument."""
    calls = []
    for name in ("inverse_cyclotomic", "lift_inverse", "inverse_table"):
        real = getattr(inverse, name)
        monkeypatch.setattr(inverse, name, lambda *args, real=real, name=name: (
            calls.append((name, args[0])) or real(*args)))
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    assert agreement_report(spec)["agree"]
    assert calls == [("inverse_cyclotomic", spec), ("lift_inverse", spec),
                     ("inverse_table", q9)]


def test_the_sigma_pass_runs_once_per_spec(q9, capsys, monkeypatch):
    """agreement_report and invert --route all make one sigma pass
    (CosetMap._inverse_table) for P's map: the table route's read-order
    choice and both certified routes share its result."""
    calls = []
    real = CosetMap._inverse_table
    monkeypatch.setattr(CosetMap, "_inverse_table",
                        lambda self: calls.append(self) or real(self))
    assert agreement_report(PermSpec("H", 3, 0, q9.alpha_from_l(2)))["agree"]
    assert len(calls) == 1
    calls.clear()
    assert cli.main(["invert", "--p", "3", "--k", "2", "--variant", "H",
                     "--n", "3", "--m", "0", "--l", "2", "--route", "all"]) == 0
    assert "composition with P is the identity: verified" in (
        capsys.readouterr().out)
    assert len(calls) == 1


def test_agreement_report_computes_every_route_above_the_default_bound(
        monkeypatch):
    """The size bound is make_field's alone: on a field built with a bound
    above the default, no route is skipped for the field's size."""
    monkeypatch.setattr(field_tower, "DEFAULT_SIZE_BOUND", 1000)
    ctx = make_field(3, 4, size_bound=10 ** 4)
    report = agreement_report(PermSpec("H", 13, 0, ctx.alpha_from_l(1)))
    assert report["skipped"] == {}
    assert set(report["routes"]) == {"cyclotomic", "closed", "table"}
    assert len(set(report["routes"].values())) == 1 and report["agree"]


def test_agreement_report_on_non_permutation(q7):
    spec = PermSpec("H", 3, 0, q7.alpha_from_l(0))
    report = agreement_report(spec)
    assert not report["agree"]  # no route can be computed
    assert report["routes"] == {}
    assert set(report["skipped"]) == {"cyclotomic", "closed", "table"}


def test_inverse_evaluator_zero_is_fixed(q9):
    spec = PermSpec("G", 3, 1, q9.alpha_from_l(0))
    lifted = lift_inverse(spec)
    assert lifted.eval_packed(0) == 0
    assert lifted(q9.zero()) == q9.zero()
