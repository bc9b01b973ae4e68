"""Two exact identities of the family, tested at every point of F_{q^2}.

Write alpha = zeta^l = gamma^(l(q-1)) and r = n + m(q+1).

(a) Variant G is variant H after an F_q-linear change of variable: for odd n,

        P^G_{n,m,alpha}(x)
            = gamma^(-l*r) * alpha^(-(n-1)/2) * P^H_{n,m,alpha}(gamma^l * x^q).

    In discrete-log order, V_G[t] = gamma^(-l*r) * alpha^(-(n-1)/2) *
    V_H[(l + q*t) mod (q^2-1)], and 0 -> 0 on both sides.  On mu_{q+1} it
    reads sigma_G(s) = sigma_H(l - s) - l (mod q+1) wherever both coset
    tables are zero-free.  For even n no constant makes the two maps equal.

(b) A twisted Redei composition law: for odd n2, any n1 >= 1 and any m2,

        P^H_{n1,0}[alpha^(2-n2)] o P^H_{n2,m2}[alpha]
            = alpha^(-(n1-1)(n2-1)/2) * P^H_{n1*n2, n1*m2}[alpha].

Every field with q^2 <= 2^12 is covered.  Value tables are laid out from
perm_coset_map(spec).log_rows(), which checks each row against the coset
table; the identities are then compared at all q^2 points.
The grids are chosen so that each test stays within a few seconds: every
l on the fields with q <= 13 and a seeded draw of l elsewhere.
"""

import random
from operator import itemgetter

import pytest

from redeiperm import PermSpec
from redeiperm.construct import perm_coset_map
from redeiperm.field_tower import field_for_q
from test_coset_eval import sigma_of

# the odd prime powers q with q^2 <= 2^12
FIELDS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
          53, 59, 61)
ALL_L_UP_TO = 13  # above this q, each test draws its values of l
DRAWS = 6


def _ls(q: int, rng: random.Random) -> list[int]:
    return (list(range(q + 1)) if q <= ALL_L_UP_TO
            else sorted(rng.sample(range(q + 1), DRAWS)))


def _values(spec: PermSpec) -> list[int]:
    """P at gamma^0, ..., gamma^(q^2-2), packed; P(0) = 0 is checked here."""
    cm = perm_coset_map(spec)
    assert cm.eval_packed(0) == 0
    values = [0] * cm.ctx.units
    for s, (_, row) in enumerate(cm.log_rows()):
        values[s::cm.ctx.q + 1] = row
    return values


def _scaled(ctx, c: int, values) -> list[int]:
    """gamma^c * v for every packed v."""
    exp, log, N = ctx._exp, ctx._log, ctx.units
    return [exp[(c + log[v]) % N] if v else 0 for v in values]


def _g_from_h(ctx, n: int, m: int, l: int) -> list[int]:
    """P^G_{n,m,alpha} in log order, built from P^H_{n,m,alpha} by (a)."""
    q, N = ctx.q, ctx.units
    vh = _values(PermSpec("H", n, m, ctx.alpha_from_l(l)))
    rotated = vh[l:] + vh[:l]  # rotated[i] = vh[(l + i) mod N]
    at = itemgetter(*[q * t % N for t in range(N)])(rotated)
    r = n + m * (q + 1)
    return _scaled(ctx, -l * r - l * (q - 1) * ((n - 1) // 2), at)


@pytest.mark.parametrize("q", FIELDS)
def test_identity_a_variant_g_is_h_after_a_linear_change_of_variable(q):
    ctx = field_for_q(q)
    rng = random.Random(q)
    for l in _ls(q, rng):
        alpha = ctx.alpha_from_l(l)
        for n in (1, 3, 5, 7, 9, 11):
            for m in (-2, -1, 0, 1, 3):
                assert _values(PermSpec("G", n, m, alpha)) == _g_from_h(
                    ctx, n, m, l), (q, n, m, l)


@pytest.mark.parametrize("q", FIELDS)
def test_identity_a_on_mu_wherever_both_tables_are_zero_free(q):
    """sigma (by Felt arithmetic, sigma_of) depends on m only through
    r mod (q+1) = n, so m = 0 is enough; n runs over 1..2q+2, even n
    included, so most of these maps do not permute."""
    ctx = field_for_q(q)
    rng = random.Random(q)
    q1 = q + 1
    compared = 0
    for l in _ls(q, rng):
        alpha = ctx.alpha_from_l(l)
        for n in range(1, 2 * q + 3):
            sg = sigma_of(perm_coset_map(PermSpec("G", n, 0, alpha)))
            sh = sigma_of(perm_coset_map(PermSpec("H", n, 0, alpha)))
            if sg is None or sh is None:
                continue
            assert sg == [(sh[(l - s) % q1] - l) % q1 for s in range(q1)], (
                q, n, l)
            compared += 1
    assert compared >= q  # the zero-free case is not rare


def test_identity_a_has_no_even_n_form():
    """For even n, P^G is no constant multiple of x -> P^H(gamma^l x^q)."""
    ctx = field_for_q(9)
    q, N, exp, log = ctx.q, ctx.units, ctx._exp, ctx._log
    n, m, l = 2, 0, 1
    alpha = ctx.alpha_from_l(l)
    vg = _values(PermSpec("G", n, m, alpha))
    vh = _values(PermSpec("H", n, m, alpha))
    pairs = [(vg[t], vh[(l + q * t) % N]) for t in range(N)]
    assert any((a == 0) != (b == 0) for a, b in pairs) or len(
        {(log[a] - log[b]) % N for a, b in pairs if a}) > 1


def _composed(ctx, outer: list[int], inner: list[int]) -> list[int]:
    """(outer o inner) in log order, from both maps in log order."""
    log = ctx._log
    return [outer[log[v]] if v else 0 for v in inner]


@pytest.mark.parametrize("q", FIELDS)
def test_identity_b_twisted_composition_law(q):
    ctx = field_for_q(q)
    rng = random.Random(q)
    for l in _ls(q, rng):
        alpha = ctx.alpha_from_l(l)
        for n2 in (1, 3, 5, 7):
            twisted = ctx.alpha_from_l(l * (2 - n2))
            outers = {n1: _values(PermSpec("H", n1, 0, twisted))
                      for n1 in range(1, 7)}
            for m2 in (-1, 0, 1, 2):
                inner = _values(PermSpec("H", n2, m2, alpha))
                for n1, outer in outers.items():
                    right = _values(PermSpec("H", n1 * n2, n1 * m2, alpha))
                    c = -l * (q - 1) * ((n1 - 1) * (n2 - 1) // 2)
                    assert _composed(ctx, outer, inner) == _scaled(
                        ctx, c, right), (q, n1, n2, m2, l)
