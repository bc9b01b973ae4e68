"""The log-domain power sum and the two inverse paths built on table
lookups, against term-by-term code with add_packed and mul_packed.

FieldCtx.sum_powers adds powers of gamma as a chain of Zech lookups on a
running log.  inverse_cyclotomic sums each coefficient through it, and
lift_inverse reads the closed-form inverse on mu_{q+1} from one table per
spec.  Each is compared with a plain add_packed loop on every small field
and on the acceptance grid, and each must raise ArithmeticError when its
fast path is corrupted.  The coset tables of CosetMap.from_poly are
compared with the same add_packed loop.
"""

import math
import random
import re

import pytest
from hypothesis import given, settings

from redeiperm import (CosetMap, Felt, PermSpec, Poly, build_perm_poly,
                       check_criterion, cli, construct, coset_factor_table,
                       field_tower, inverse, inverse_cyclotomic, lift_inverse,
                       make_field, mu_inverse, mu_inverse_eval, redei)
from redeiperm.inverse import bezout
from test_coset_eval import SMALL_FIELDS, coset_polys
from test_gh_closed import GRID_FIELDS, GRID_MS, GRID_NS


def _add_loop(ctx, logs):
    """sum_powers(logs) by one add_packed call per term."""
    acc = 0
    for l in logs:
        acc = ctx.add_packed(acc, ctx._exp[l % ctx.units])
    return acc


def _double_sum_inverse(spec):
    """inverse_cyclotomic as the (q+1)^2 double sum with one add_packed and
    one mul_packed call per term."""
    ctx = spec.ctx
    q, N, exp, log = ctx.q, ctx.units, ctx._exp, ctx._log
    b = bezout(spec)
    a_table = coset_factor_table(spec)
    inv_q1 = ctx.scalar(q + 1).inv()
    terms = {}
    for j in range(q + 1):
        e_j = b.r_prime + (q - 1) * j
        acc = 0
        for i in range(q + 1):
            zpow = exp[(q - 1) * ((b.t * i - spec.r * i * j) % (q + 1)) % N]
            apow = exp[(-log[a_table[i]] * e_j) % N]
            acc = ctx.add_packed(acc, ctx.mul_packed(zpow, apow))
        coeff = inv_q1 * Felt(ctx, acc)
        if coeff.val:
            terms[e_j] = coeff
    return Poly(ctx, terms)


def _coset_table_loop(f):
    """T[s] = sum_e c_e * gamma^(s(e-e0)), e0 the least exponent, s = 0..q,
    by one add_packed call per term."""
    ctx = f.ctx
    log, e0 = ctx._log, min(f.terms)
    return [_add_loop(ctx, [log[c.val] + s * (e - e0) for e, c in f.terms.items()])
            for s in range(ctx.q + 1)]


def _permutations(ctx, ns, ms, ls):
    for variant in ("H", "G"):
        for n in ns:
            for m in ms:
                for l in ls:
                    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                    if check_criterion(spec).is_perm:
                        yield spec


def _sample_ls(q):
    return sorted({0, 1, 2, q // 3, q})


# ---------------------------------------------------------------------------
# The power sum.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_kernel_matches_the_add_loop(p, k):
    """sum_powers against the add_packed loop: no terms, one term, logs
    outside [0, q^2-2] on either side, and p copies of one power, which
    cancel to 0 and leave the chain at its zero sentinel, then one more."""
    ctx = make_field(p, k)
    q, N = ctx.q, ctx.units
    rnd = random.Random(q)
    cases = [[], [rnd.randrange(N)], [-1], [N], [-5 * N - 2, 7 * N + 3]]
    cases += [[rnd.randrange(-N, 2 * N) for _ in range(size)]
              for size in (2, q + 1, 3 * (q + 1))]
    for _ in range(3):
        l = rnd.randrange(N)
        cases += [[l] * p, [l] * p + [rnd.randrange(N)], [l] * p + [l]]
    for logs in cases:
        assert ctx.sum_powers(logs) == _add_loop(ctx, logs), logs


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_kernel_digit_slots_hold_the_worst_case(p, k):
    """Every summand is q^2-1, the element whose digits are all p-1: the
    chain returns to its zero sentinel after every p terms and must leave
    it again, and unreduced logs of it sum the same."""
    ctx = make_field(p, k)
    top = ctx._log[ctx.q2 - 1]
    for size in (1, p - 1, p, p + 1, ctx.q, ctx.q + 1, 2 * ctx.q + 5):
        for logs in ([top] * size, [top + i * ctx.units for i in range(size)]):
            assert ctx.sum_powers(logs) == _add_loop(ctx, logs)


# ---------------------------------------------------------------------------
# inverse_cyclotomic against the double sum.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,k", GRID_FIELDS)
def test_cyclotomic_inverse_matches_the_double_sum_on_the_grid(p, k):
    ctx = make_field(p, k)
    checked = 0
    for spec in _permutations(ctx, GRID_NS, GRID_MS, range(ctx.q + 1)):
        assert inverse_cyclotomic(spec) == _double_sum_inverse(spec), spec
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_cyclotomic_inverse_matches_the_double_sum_every_small_field(p, k):
    ctx = make_field(p, k)
    for spec in _permutations(ctx, (1, 3, 5, 7), (0, 1), _sample_ls(ctx.q)):
        assert inverse_cyclotomic(spec) == _double_sum_inverse(spec), spec


def _naive_dft(ctx, logs, step):
    """X_j = sum_k gamma^(logs[k] + j*k*step) by add_packed, as logs."""
    N, exp, log = ctx.units, ctx._exp, ctx._log
    out = []
    for j in range(len(logs)):
        acc = 0
        for k, l in enumerate(logs):
            if l != N:
                acc = ctx.add_packed(acc, exp[(l + j * k * step) % N])
        out.append(log[acc] if acc else N)
    return out


# q+1 = 8 = 2^3, 14 = 2*7, 28 = 2^2*7, 32 = 2^5, 82 = 2*41: every divisor
# of q+1 as the length, so radices repeat, mix, and stand alone (primes)
@pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (3, 3), (31, 1), (3, 4)])
def test_dft_matches_the_naive_transform(p, k):
    ctx = make_field(p, k)
    q, N = ctx.q, ctx.units
    rnd = random.Random(q)
    for M in (d for d in range(1, q + 2) if (q + 1) % d == 0):
        step = -(N // M) * rnd.choice([u for u in range(1, M + 1)
                                       if math.gcd(u, M) == 1])
        for zeros in (0, 1, M // 2):
            logs = [rnd.randrange(N) for _ in range(M)]
            for i in rnd.sample(range(M), zeros):
                logs[i] = N  # a zero entry
            assert inverse._dft_logs(ctx, logs, step) == _naive_dft(ctx, logs, step)


# q+1 = 82 = 2*41, 128 = 2^7 and 244 = 2^2*61; the double sum takes (q+1)^2
# add_packed calls per spec, so a fixed sample of four specs per field
@pytest.mark.parametrize("p,k", [(3, 4), (127, 1), (3, 5)])
def test_cyclotomic_inverse_matches_the_double_sum_at_sampled_specs(p, k):
    ctx = make_field(p, k)
    specs = list(_permutations(ctx, (1, 5, 7, 11, 13), (0, 1), (1, 2, 5)))
    for spec in random.Random(ctx.q).sample(specs, 4):
        assert inverse_cyclotomic(spec) == _double_sum_inverse(spec), spec


def test_a_certified_map_whose_sigma_does_not_permute_is_refused(monkeypatch):
    """q = 5, l odd, n = 3: gcd(n, q+1) = 3, so sigma is not a permutation
    of mu_6; made to pass the criterion, the DFT refuses it."""
    spec = _spec(5, 1, "H", 3, 0, 1)
    real = check_criterion(spec)
    assert not real.is_perm and bezout(spec).r_prime is not None
    monkeypatch.setattr(inverse, "check_criterion",
                        lambda s: real._replace(is_perm=True))
    with pytest.raises(ArithmeticError, match="Akbary-Ghioca-Wang"):
        inverse_cyclotomic(spec)


def test_the_cyclotomic_route_refuses_what_coset_map_permutes_refuses(
        monkeypatch):
    """The Akbary-Ghioca-Wang refusal comes from the forward map's
    CosetMap.inverse, whatever the criterion says; the closed route, which
    is certified the same way, refuses with the same message."""
    spec = _spec(5, 1, "H", 1, 0, 0)
    assert check_criterion(spec).is_perm
    monkeypatch.setattr(CosetMap, "inverse", lambda self: None)
    message = ("the gcd criterion certifies a map that does not permute "
               "F_{q^2} (Akbary-Ghioca-Wang)")
    for route in (inverse_cyclotomic, lift_inverse):
        with pytest.raises(ArithmeticError, match=re.escape(message)):
            route(spec)


def test_only_the_cyclotomic_route_builds_the_zech_table(monkeypatch):
    """At q = 243, make_field, a certification and the closed and table
    routes make O(q) Zech steps per call and leave the table unbuilt; the
    cyclotomic route's O(q^2) chains build it."""
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    ctx = make_field(3, 5)
    spec = PermSpec("H", 5, 0, ctx.alpha_from_l(1))
    assert check_criterion(spec).is_perm
    _, evaluator = build_perm_poly(spec)
    assert construct.is_permutation_bruteforce(ctx, evaluator)[0]
    report = inverse.agreement_report(spec, routes=("closed", "table"))
    assert report["agree"] and not report["skipped"]
    assert ctx._zech_table is None
    full = inverse.agreement_report(spec)
    assert full["agree"] and full["routes"]["cyclotomic"] == report["routes"]["table"]
    assert ctx._zech_table is not None


# ---------------------------------------------------------------------------
# The mu-inverse table against mu_inverse_eval.
# ---------------------------------------------------------------------------

def _mu_specs(ctx, ns, ms, ls):
    """Permutations with a closed-form inverse on mu_{q+1} (odd n and a
    solvable inverse exponent), whether or not the lift applies."""
    for spec in _permutations(ctx, ns, ms, ls):
        try:
            mu_inverse(spec)
        except ValueError:
            continue
        yield spec


def _assert_mu_table_matches_eval(spec):
    ctx = spec.ctx
    first = mu_inverse(spec)
    # I inverts sigma, for either root: P(x)^(q-1) = y^n * F(y)^(q-1) for
    # y = x^(q-1) in mu_{q+1}, as r = n mod q+1, so I(zeta^j) =
    # P^-1(gamma^j)^(q-1)
    back = construct.perm_coset_map(spec).inverse()
    on_mu = [ctx.pow_packed(back.eval_packed(ctx._exp[j]), ctx.q - 1)
             for j in range(ctx.q + 1)]
    for root in (first.sqrt_alpha, -first.sqrt_alpha):
        inv = first._replace(sqrt_alpha=root)
        table = inverse._mu_inverse_values(inv)
        assert table == [mu_inverse_eval(inv, y).val
                         for y in ctx.mu(ctx.q + 1)], (spec, root)
        inverse._check_mu_table(inv, table)
        assert table == on_mu, (spec, root)


@pytest.mark.parametrize("p,k", GRID_FIELDS)
def test_mu_table_matches_mu_inverse_eval_on_the_grid(p, k):
    ctx = make_field(p, k)
    cases = set()
    for spec in _mu_specs(ctx, GRID_NS, GRID_MS, range(ctx.q + 1)):
        _assert_mu_table_matches_eval(spec)
        cases.add(mu_inverse(spec).case)
    assert cases


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_mu_table_matches_mu_inverse_eval_every_small_field(p, k):
    ctx = make_field(p, k)
    for spec in _mu_specs(ctx, (1, 3, 5, 7), (0, 1), _sample_ls(ctx.q)):
        _assert_mu_table_matches_eval(spec)


# ---------------------------------------------------------------------------
# CosetMap.from_poly's table against the add_packed loop.
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(coset_polys(SMALL_FIELDS))
def test_coset_table_matches_the_term_loop(f):
    if f.terms:
        assert CosetMap.from_poly(f).table == _coset_table_loop(f)


@pytest.mark.parametrize("p,k", GRID_FIELDS)
def test_coset_table_of_grid_polynomials_matches_the_term_loop(p, k):
    ctx = make_field(p, k)
    for spec in _permutations(ctx, GRID_NS, (0, 1), _sample_ls(ctx.q)):
        for f in (build_perm_poly(spec)[0], inverse_cyclotomic(spec)):
            assert CosetMap.from_poly(f).table == _coset_table_loop(f)


# ---------------------------------------------------------------------------
# Corruption: every new fast path must raise ArithmeticError.
# ---------------------------------------------------------------------------

# q = 27, variant H, n = 5, l = 1: 28 coefficients of 28 terms each
CYCLOTOMIC_SPEC = (3, 3, "H", 5, 0, 1)


def _spec(p, k, variant, n, m, l):
    ctx = make_field(p, k)
    return PermSpec(variant, n, m, ctx.alpha_from_l(l))


def _drop_top_digit(monkeypatch):
    real = field_tower.FieldCtx.sum_powers

    def dropped(self, logs):
        return real(self, logs) % (self.q2 // self.p)

    monkeypatch.setattr(field_tower.FieldCtx, "sum_powers", dropped)


@pytest.mark.parametrize("corrupt", [_drop_top_digit])
def test_corrupted_kernel_fails_the_cyclotomic_checks(monkeypatch, corrupt):
    """The coefficient spot check catches a corrupted sum_powers, so
    _cyclotomic_coefficient does not share it."""
    spec = _spec(*CYCLOTOMIC_SPEC)
    assert check_criterion(spec).is_perm
    corrupt(monkeypatch)
    kernel = field_tower.FieldCtx.sum_powers
    wrong = []

    def spy(self, logs):
        out = kernel(self, logs)
        wrong.append(out != _add_loop(self, logs))
        return out

    monkeypatch.setattr(field_tower.FieldCtx, "sum_powers", spy)
    with pytest.raises(ArithmeticError, match="term-by-term sum"):
        inverse_cyclotomic(spec)
    assert any(wrong)  # the injection really changed the sums


def test_each_cyclotomic_check_fires_on_its_own(monkeypatch):
    """Either check alone catches a mismatch: the coefficient spot checks
    against the term-by-term sum, and the round trip through P."""
    spec = _spec(*CYCLOTOMIC_SPEC)
    monkeypatch.setattr(inverse, "_cyclotomic_coefficient", lambda *args: -1)
    with pytest.raises(ArithmeticError, match="term-by-term sum"):
        inverse_cyclotomic(spec)
    monkeypatch.undo()
    monkeypatch.setattr(inverse, "_eval_terms", lambda f, xv: -1)
    with pytest.raises(ArithmeticError, match="back to gamma"):
        inverse_cyclotomic(spec)


# q = 25, variant H, n = 7, l = 1: the lift applies (case I2)
LIFT_SPEC = (5, 2, "H", 7, 0, 1)


def _swap_two_entries(monkeypatch):
    real = inverse._mu_inverse_values

    def swapped(inv):
        table = real(inv)
        table[1], table[2] = table[2], table[1]
        return table

    monkeypatch.setattr(inverse, "_mu_inverse_values", swapped)


def _corrupt_off_the_spot_checks(monkeypatch):
    """Entry 1 of every closed-form G/H table, never one gh_table spot-checks
    against pair powering on tables of q+1 = 26 points.  construct's memos
    of F are emptied, so P's coset table is built again from the corrupted
    closed form, as is I's."""
    real = redei._gh_closed_packed

    def corrupted(ctx, n, av, pick, points):
        values = real(ctx, n, av, pick, points)
        values[1] = ctx.add_packed(values[1], 1)
        return values

    assert 1 not in redei.spot_positions(26)
    monkeypatch.setattr(redei, "_gh_closed_packed", corrupted)
    construct._redei_pair.cache_clear()
    construct._factor_values.cache_clear()


def _leave_mu(monkeypatch):
    real = inverse._mu_inverse_values

    def scaled(inv):
        table = real(inv)
        table[0] = inv.ctx.mul_packed(table[0], inv.ctx.gamma.val)
        return table

    monkeypatch.setattr(inverse, "_mu_inverse_values", scaled)


@pytest.mark.parametrize("corrupt", [_swap_two_entries, _leave_mu,
                                     _corrupt_off_the_spot_checks])
def test_corrupted_mu_table_fails_the_lift_checks(monkeypatch, corrupt):
    spec = _spec(*LIFT_SPEC)
    lift_inverse(spec)
    corrupt(monkeypatch)
    with pytest.raises(ArithmeticError):
        lift_inverse(spec)


@pytest.mark.parametrize("corrupt", [_swap_two_entries, _drop_top_digit])
def test_corrupted_fast_path_exits_3_from_invert_all(monkeypatch, capsys,
                                                     corrupt):
    corrupt(monkeypatch)
    p, k, variant, n, m, l = (LIFT_SPEC if corrupt is _swap_two_entries
                              else CYCLOTOMIC_SPEC)
    rc = cli.main(["invert", "--p", str(p), "--k", str(k), "--variant",
                   variant, "--n", str(n), "--m", str(m), "--l", str(l),
                   "--route", "all"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_lift_accepts_either_square_root(q9):
    spec = PermSpec("H", 7, 0, q9.alpha_from_l(2))
    inv = mu_inverse(spec)
    roots = (inv.sqrt_alpha, -inv.sqrt_alpha)
    assert roots == q9.sqrt(spec.alpha)
    tables = {tuple(inverse._mu_inverse_values(
        inv._replace(sqrt_alpha=root))) for root in roots}
    assert len(tables) == 1
