"""Field construction, table arithmetic, Frobenius, roots of unity, square roots.

The frozen moduli and generators below were confirmed against an independent
implementation (sympy irreducibility plus repeated-multiplication order); the
in-file oracles re-derive the small cases from scratch so a regression in the
construction search cannot hide.
"""

import array
import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from redeiperm import Felt, cli, field_tower, make_field
from redeiperm.field_tower import field_for_q


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


# every odd p^k with q^2 <= 2^12
FIELDS_TO_2_12 = [(p, k) for p in range(3, 64, 2)
                  if all(p % d for d in range(3, p, 2))
                  for k in range(1, 7) if p ** (2 * k) <= 1 << 12]


@pytest.mark.parametrize("p,k", FIELDS_TO_2_12)
def test_table_free_rule_matches_the_zech_table_and_the_digits(p, k):
    """add_logs reads log(1 + gamma^d) from exp and log alone; at every d
    it equals the stored Zech table (built by rotating log) and, through
    add_packed, the componentwise sum of 1 and gamma^d.  The zero sentinel
    q^2-1 passes through on either side, and scaled pairs agree too."""
    ctx = make_field(p, k)
    N, exp = ctx.units, ctx._exp
    assert ctx.add_logs((0, d) for d in range(N)) == list(ctx._zech)
    for d in range(N):
        assert ctx.add_packed(1, exp[d]) == ctx._add_digits(1, exp[d])
    assert ctx.add_logs([(N, N), (N, 5 % N), (5 % N, N)]) == [N, 5 % N, 5 % N]
    pairs = [(a, b) for a in range(0, N, max(1, N // 40))
             for b in range(0, N, max(1, N // 37))]
    want = [ctx._add_digits(exp[a], exp[b]) for a, b in pairs]
    assert [0 if l == N else exp[l] for l in ctx.add_logs(pairs)] == want
    assert [ctx.add_packed(exp[a], exp[b]) for a, b in pairs] == want
    assert all(0 <= l <= N for l in ctx.add_logs(pairs))


def test_the_zech_table_is_built_on_first_read(monkeypatch):
    """make_field builds exp and log only; the first read of _zech (the
    first sum_powers) builds the table once and keeps it."""
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    ctx = make_field(7, 2)
    assert ctx._zech_table is None
    assert ctx.add_packed(3, 5) == ctx._add_digits(3, 5)
    assert ctx._zech_table is None
    assert ctx.sum_powers([1, 2, 3]) == ctx._add_digits(
        ctx._add_digits(ctx._exp[1], ctx._exp[2]), ctx._exp[3])
    table = ctx._zech_table
    assert table is not None and ctx._zech is table and len(table) == ctx.units


@pytest.mark.parametrize("p,k,code", [(3, 1, "b"), (3, 4, "h"), (3, 5, "i")])
def test_log_and_zech_are_the_narrowest_signed_arrays(p, k, code):
    """exp stays a list, whose ints every derived table shares; log and
    Zech are arrays of the narrowest signed items that hold q^2-1, the
    log's -1 sentinel included."""
    ctx = make_field(p, k)
    assert type(ctx._exp) is list
    for table in (ctx._log, ctx._zech):
        assert isinstance(table, array.array) and table.typecode == code
        assert len(table) == (ctx.q2 if table is ctx._log else ctx.units)
    assert ctx._log[0] == -1


def test_the_zech_table_adds_one_array_item_per_element(monkeypatch):
    """Building Zech on F_{81^2} holds about itemsize bytes per element
    (the array's growth slack aside) and peaks below three items per
    element: no int object is made per entry (tracemalloc)."""
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    ctx = make_field(3, 4)
    size = ctx._log.itemsize * ctx.q2
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        zech = ctx._zech
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert zech.itemsize == ctx._log.itemsize
    assert size <= held < 1.15 * size, held
    assert peak < 3 * size, peak


def test_the_size_refusal_estimates_the_table_bytes(monkeypatch):
    """The refusal names 44 bytes per element, worked out from q^2 before
    anything is allocated; the estimate is within 15% of what exp and log
    really take, traced on a field under the bound."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            make_field(1031, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == ("q^2 = 1062961 exceeds the size bound 1048576; its "
                              "exp and log tables would take about 46770284 bytes")
    assert peak < 64 * 1024
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    tracemalloc.start()
    try:
        ctx = make_field(3, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ctx._zech_table is None
    per = field_tower.TABLE_BYTES_PER_ELEMENT
    assert abs(held - per * ctx.q2) < 0.15 * per * ctx.q2, held


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
    for other in (make_field(3, 1).one(), make_field(5, 2).from_packed(600)):
        with pytest.raises(ValueError, match="^elements from different fields$"):
            q9.sqrt(other)


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


def _from_coeffs(ctx, coeffs):
    """The element with coefficient vector coeffs, low degree first, mod p."""
    if len(coeffs) > 2 * ctx.k:
        raise ValueError("coefficient vector too long")
    return Felt(ctx, sum(c % ctx.p * ctx.p ** i for i, c in enumerate(coeffs)))


def test_coeff_packing_roundtrip(q9):
    for a in q9.elements():
        assert _from_coeffs(q9, a.to_coeffs()) == a
    assert _from_coeffs(q9, [4, -1]) == _from_coeffs(q9, [1, 2])
    with pytest.raises(ValueError):
        _from_coeffs(q9, [0] * 5)
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


@pytest.mark.parametrize("k", [5000, 3_000_000])
def test_make_field_refuses_large_k_from_the_estimate(k):
    """3^(2k) has 4772 digits at k = 5000 and 1.2 MB at k = 3000000; the
    refusal names the power instead of building and printing it."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            make_field(3, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (f"q^2 = 3^{2 * k} exceeds the size bound {1 << 20}; "
                              f"its exp and log tables would take about "
                              f"44*3^{2 * k} bytes")
    assert peak < 64 * 1024


@pytest.mark.parametrize("call,message", [
    (lambda: make_field(10 ** 2500 + 1, 1),
     "q^2 = (16610-bit integer) exceeds the size bound 1048576; its exp and "
     f"log tables would take about ({(44 * (10 ** 2500 + 1) ** 2).bit_length()}"
     "-bit integer) bytes"),
    (lambda: make_field(10 ** 5000 + 1, 10 ** 5000),
     "q^2 = (16610-bit integer)^(16611-bit integer) exceeds the size bound "
     "1048576; its exp and log tables would take about "
     "44*(16610-bit integer)^(16611-bit integer) bytes"),
    (lambda: field_for_q(37 ** 3000),
     "q^2 = (31257-bit integer) exceeds the size bound 1048576; its exp and "
     f"log tables would take about ({(44 * 37 ** 6000).bit_length()}-bit "
     "integer) bytes"),
    (lambda: make_field(10 ** 5000, 1), "p=(16610-bit integer) is not an odd prime"),
    (lambda: field_for_q(3 * 37 ** 3000), "q=(15630-bit integer) is not a prime power"),
], ids=["p^2", "p-and-k", "field_for_q", "even-p", "not-a-prime-power"])
def test_a_refusal_never_prints_an_overlong_integer(call, message):
    """Past Python's int-to-str digit limit a value is named by its bit
    length, so the refusal still names what was refused."""
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_make_field_is_cached():
    assert make_field(3, 2) is make_field(3, 2)


def test_felt_equality_and_hash(q9, q11):
    a = q9.scalar(2)
    assert a == 2 and a == q9.scalar(2)
    assert a != q9.scalar(1)
    assert hash(a) == hash(q9.scalar(2))
    assert len({q9.one(), q9.one(), q9.zero()}) == 2
    # only the canonical scalar 0 <= c < p compares equal, so hashes agree
    assert q11.one() == 1 and q11.one() != 12 and q11.neg_one() != -1
    assert len({q11.one(), 1}) == 1 and len({q9.zero(), 0, q9.one()}) == 2
    assert repr(_from_coeffs(q9, [1, 2])) == "Felt(1, 2, 0, 0)"


# ---------------------------------------------------------------------------
# Table construction: the linear gamma-step against the per-entry build.
# ---------------------------------------------------------------------------

def _reference_tables(ctx):
    """exp, log and Zech tables built one dense product per power of gamma
    and one componentwise addition per Zech entry."""
    p, N = ctx.p, ctx.units
    gamma = ctx._unpack_dense(ctx.gamma.val)
    mod = list(ctx.modulus)
    exp, cur = [], [1]
    for _ in range(N):
        exp.append(ctx._pack_dense(cur))
        cur = field_tower._mulmod(cur, gamma, mod, p)
    log = [-1] * ctx.q2
    for i, v in enumerate(exp):
        log[v] = i
    zech = []
    for v in exp:
        s = ctx._add_digits(1, v)
        zech.append(N if s == 0 else log[s])
    return exp, log, zech


# every odd p^k with q^2 <= 2^14: the 30 odd primes up to 127 with k = 1, and
# (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2)
SMALL_FIELDS = [(p, k) for p in range(3, 128, 2)
                if all(p % d for d in range(3, p, 2))
                for k in range(1, 8) if p ** (2 * k) <= 1 << 14]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_tables_match_the_per_entry_build(p, k):
    ctx = make_field(p, k)
    exp, log, zech = _reference_tables(ctx)
    assert ctx._exp == exp
    assert list(ctx._log) == log
    assert list(ctx._zech) == zech


# sha256 of ",".join(map(str, table)) for exp, log and zech, computed on
# commit 6c8ead2, whose FieldCtx still built every entry by dense
# multiplication and the Zech table by componentwise addition.
PINNED_TABLES = {
    (1021, 1): ((1, 5, 1), 9190, (
        "13cf957f90f1a593d12ba05019935dc6892961de8522ba54f6aaeee3b9771584",
        "987ed57dc910f4dcd9a9d23d9805b6cae4de545e0d1cd69686acf979311440d5",
        "dfa2a4e77d730b68d798e55c8fee4541e3bc1524c5470a8b3fa916dab898ab1e")),
    (3, 6): ((1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1), 373977, (
        "74d8d90dc55892a3472ea3974e5a5a7c2d16996420b2a612e424da61856e9984",
        "9cde1cd8fd2b131533ca20e8b015560a1898e8572646049b5dc3a5ae0c1c642d",
        "92ba0618e72d430c98de7cd57c6063ac0047a83a0dea1a2d814076c959547702")),
}


@pytest.mark.parametrize("p,k", sorted(PINNED_TABLES))
def test_large_tables_match_pinned_digests(monkeypatch, p, k):
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})  # freed afterwards
    ctx = make_field(p, k)
    modulus, gamma, digests = PINNED_TABLES[(p, k)]
    assert ctx.modulus == modulus and ctx.gamma.val == gamma
    assert tuple(hashlib.sha256(",".join(map(str, t)).encode()).hexdigest()
                 for t in (ctx._exp, ctx._log, ctx._zech)) == digests


def _corrupt_step_tables(monkeypatch, which, index):
    """Make make_field build with one entry of lo_tab (which = 0) or hi_tab
    (which = 1) replaced by its neighbour's image."""
    real = field_tower._step_tables

    def corrupted(*args):
        tables = real(*args)
        tab = tables[which]
        tab[index] = tab[(index + 1) % len(tab)]
        return tables

    monkeypatch.setattr(field_tower, "_step_tables", corrupted)
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})


def test_corrupt_step_is_caught_by_the_dense_cross_check(monkeypatch):
    # row 0 starts at exp[0] = 1, whose low half 1 makes exp[q+1]
    _corrupt_step_tables(monkeypatch, 0, 1)
    with pytest.raises(ArithmeticError, match=r"step at index 0 disagrees"):
        make_field(3, 2)


@pytest.mark.parametrize("p,k", [(3, 2), (7, 1)])
def test_every_corrupt_step_entry_is_refused(monkeypatch, p, k):
    for which, index in itertools.product((0, 1), range(p ** k)):
        _corrupt_step_tables(monkeypatch, which, index)
        with pytest.raises((ArithmeticError, ValueError)):
            make_field(p, k)
        monkeypatch.undo()


def test_corrupt_step_exits_3_from_the_cli(monkeypatch, capsys):
    _corrupt_step_tables(monkeypatch, 0, 1)
    rc = cli.main(["construct", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: exp table step at index 0 ")


@pytest.mark.parametrize("p,k", [(3, 2), (7, 1), (3, 4)])
def test_one_build_makes_one_step_table(monkeypatch, p, k):
    """The row starts are dense products, so a build steps by g alone."""
    calls = []
    real = field_tower._step_tables
    monkeypatch.setattr(field_tower, "_step_tables",
                        lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})
    make_field(p, k)
    assert len(calls) == 1


def test_a_corrupt_step_is_named_by_the_check_that_caught_it(monkeypatch):
    # row 0 starts at exp[0] = 1, whose low half 1 makes exp[q+1]
    _corrupt_step_tables(monkeypatch, 0, 1)
    with pytest.raises(ArithmeticError) as exc:
        make_field(3, 2)
    assert str(exc.value) == ("exp table step at index 0 disagrees with dense "
                              "multiplication by gamma^(q+1)")


@pytest.mark.parametrize("p,k", [(3, 2), (7, 1)])
def test_every_corrupt_row_step_entry_is_refused(monkeypatch, p, k):
    for which, index in itertools.product((0, 1), range(p ** k)):
        _corrupt_step_tables(monkeypatch, which, index)
        with pytest.raises((ArithmeticError, ValueError)):
            make_field(p, k)
        monkeypatch.undo()


def test_a_corrupt_row_step_exits_3_from_the_cli(monkeypatch, capsys):
    _corrupt_step_tables(monkeypatch, 0, 1)
    rc = cli.main(["construct", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "3"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == ("error: exp table step at index 0 disagrees with "
                            "dense multiplication by gamma^(q+1)\n")


@pytest.mark.parametrize("gamma,message", [
    (0, "gamma does not have full order"),
    (1, "gamma powers collide; order too small"),
    (2, "gamma powers collide; order too small")])
def test_a_gamma_without_full_order_is_refused(gamma, message):
    """0 never comes back to 1, so no row closes; 1 and 2 = -1 in F_9 have
    orders 1 and 2, so their rows repeat a value."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        field_tower.FieldCtx(3, 1, make_field(3, 1).modulus, gamma)


# log's signed items and the packed tables' unsigned ones
FIND_TYPECODES = "bhiqIQ"


def _reference_find(items, mark, start=0):
    return next((i for i in range(start, len(items)) if items[i] == mark), -1)


@pytest.mark.parametrize("typecode", FIND_TYPECODES)
@pytest.mark.parametrize("find_range", [2, 3, 1 << 10])
def test_find_item_finds_the_first_and_the_last_index(typecode, find_range,
                                                      monkeypatch):
    """The mark alone at index 0, at the last index, and at each edge of a
    range that find_item copies out, of arrays shorter and longer than one
    range."""
    monkeypatch.setattr(field_tower, "FIND_RANGE", find_range)
    bits = 8 * array.array(typecode).itemsize
    mark = -1 if typecode.islower() else (1 << bits) - 1
    for size in (1, 2, 5, 2 * find_range + 1):
        for at in {0, size - 1, find_range - 1, find_range, find_range + 1}:
            if at < size:
                items = array.array(typecode, [7]) * size
                items[at] = mark
                assert field_tower.find_item(items, mark) == at
                assert field_tower.find_item(items, mark, at) == at
                assert field_tower.find_item(items, mark, at + 1) == -1
                assert field_tower.find_item(items, 7) == (
                    _reference_find(items, 7))
    assert field_tower.find_item(array.array(typecode), mark) == -1


@pytest.mark.parametrize("typecode", [c for c in FIND_TYPECODES
                                      if array.array(c).itemsize > 1])
def test_find_item_ignores_the_mark_bytes_across_two_items(typecode):
    """The mark's item bytes laid across two neighbouring items, at every
    offset inside an item, are no match; the mark placed after them is."""
    size = array.array(typecode).itemsize
    mark = int.from_bytes(bytes(range(1, size + 1)), sys.byteorder,
                          signed=typecode.islower())
    needle = array.array(typecode, [mark]).tobytes()
    for offset in range(1, size):
        items = array.array(typecode)
        items.frombytes(bytes(offset) + needle + bytes(size - offset))
        assert mark not in items
        assert field_tower.find_item(items, mark) == -1
        items.append(mark)
        assert field_tower.find_item(items, mark) == 2


@pytest.mark.parametrize("typecode", FIND_TYPECODES)
def test_find_item_agrees_with_in_and_count(typecode, monkeypatch):
    """On random arrays of every typecode, over a few marks and starts,
    find_item gives the first index at or past start, so it agrees with
    `in`, and counting by repeated finds agrees with count; with ranges of
    three items, so that matches fall at and across range edges."""
    monkeypatch.setattr(field_tower, "FIND_RANGE", 3)
    bits = 8 * array.array(typecode).itemsize
    lo, hi = ((-1 << bits - 1, (1 << bits - 1) - 1) if typecode.islower()
              else (0, (1 << bits) - 1))
    rng = random.Random(typecode)
    for _ in range(40):
        pool = [rng.randint(lo, hi) for _ in range(3)] + [lo, hi, 0, max(lo, -1)]
        items = array.array(typecode, (rng.choice(pool)
                                       for _ in range(rng.randrange(30))))
        mark = rng.choice(pool)
        start = rng.randrange(len(items) + 1)
        assert field_tower.find_item(items, mark, start) == (
            _reference_find(items, mark, start))
        assert (field_tower.find_item(items, mark) >= 0) == (mark in items)
        found, at = 0, field_tower.find_item(items, mark)
        while at >= 0:
            found += 1
            at = field_tower.find_item(items, mark, at + 1)
        assert found == items.count(mark)


def _reference_step_tables(ctx):
    """The step tables entry by entry: a dense product per lo_tab and hi_tab
    entry, and unspread from every k-tuple of slot sums."""
    p, k, q = ctx.p, ctx.k, ctx.q
    w = (2 * p - 2).bit_length()
    mod, gamma = list(ctx.modulus), ctx._unpack_dense(ctx.gamma.val)

    def spread(coeffs):
        return sum(c << (i * w) for i, c in enumerate(coeffs))

    def dense(v):
        return field_tower._trim(field_tower._digits(v, p, k))

    gamma_xk = field_tower._mulmod(gamma, [0] * k + [1], mod, p)
    lo_tab = [spread(field_tower._mulmod(dense(v), gamma, mod, p)) for v in range(q)]
    hi_tab = [spread(field_tower._mulmod(dense(v), gamma_xk, mod, p))
              for v in range(q)]
    unspread = [0] * (spread([2 * p - 2] * k) + 1)
    for sums in itertools.product(range(2 * p - 1), repeat=k):
        unspread[spread(sums)] = sum(c % p * p ** i for i, c in enumerate(sums))
    return lo_tab, hi_tab, unspread, k * w


@pytest.mark.parametrize("q", [q for q in range(3, 65, 2)
                               if len(field_tower._prime_factors(q)) == 1] + [243])
def test_step_tables_built_by_linearity_match_the_entrywise_build(q):
    """Every field with q^2 <= 2^12, and q = 243: the linear build of
    _step_tables returns exactly the tables of one dense product per entry
    and of the slot-sum product, holes of unspread (0) included."""
    ctx = field_for_q(q)
    tables = field_tower._step_tables(ctx.p, ctx.k, ctx._unpack_dense(ctx.gamma.val),
                                      list(ctx.modulus))
    assert tables == _reference_step_tables(ctx)


# every odd p^k with q^2 <= 2^16: the 53 odd primes up to 251 with k = 1,
# and (3, 2..5), (5, 2..3), (7, 2), (11, 2), (13, 2)
FIELDS_TO_2_16 = [(p, k) for p in range(3, 256, 2)
                  if all(p % d for d in range(3, p, 2))
                  for k in range(1, 9) if p ** (2 * k) <= 1 << 16]


def _plain_gamma(p, modulus):
    """The first coefficient tuple whose powers to every (p^deg - 1)/ell,
    ell a prime factor, differ from 1, each tuple powered on its own."""
    deg = len(modulus) - 1
    N = p ** deg - 1
    cofactors = [N // r for r in field_tower._prime_factors(N)]
    return next(tail for tail in itertools.product(range(p), repeat=deg)
                if any(tail) and all(
                    field_tower._powmod(list(tail), cf, list(modulus), p) != [1]
                    for cf in cofactors))


def _plain_field(p, k):
    """(modulus, gamma, exp, log) by the plain lexicographic searches, each
    tuple tested on its own as make_field once did, and one dense product
    per power of gamma; log[0] is -1."""
    deg = 2 * k
    modulus = next(tail + (1,) for tail in itertools.product(range(p), repeat=deg)
                   if tail[0] and field_tower._is_irreducible([*tail, 1], p))
    gamma = _plain_gamma(p, modulus)
    N = p ** deg - 1
    exp, cur = [], [1]
    for _ in range(N):
        v = 0
        for c in reversed(cur):
            v = v * p + c
        exp.append(v)
        cur = field_tower._mulmod(cur, gamma, modulus, p)
    log = [-1] * (N + 1)
    for i, v in enumerate(exp):
        log[v] = i
    return modulus, gamma, exp, log


@pytest.mark.parametrize("p,k", FIELDS_TO_2_16)
def test_the_orbit_search_builds_the_plain_searchs_field(monkeypatch, p, k):
    """make_field, which powers one element per F_p^*-orbit and builds exp
    by coset rows, gives the plain search's modulus and gamma and the exp
    and log tables of one dense product per power."""
    monkeypatch.setattr(field_tower, "_FIELD_CACHE", {})  # freed afterwards
    ctx = make_field(p, k)
    modulus, gamma, exp, log = _plain_field(p, k)
    assert ctx.modulus == modulus
    assert ctx.gamma.coeffs == gamma
    assert ctx._exp == exp
    assert list(ctx._log) == log


@pytest.mark.parametrize("p,deg", [(3, 2), (5, 2), (7, 2), (11, 2), (13, 2),
                                   (31, 2), (3, 4), (5, 4)])
def test_the_orbit_search_matches_the_plain_search_under_every_modulus(p, deg):
    """Not only make_field's modulus: under every monic irreducible of the
    degree, the orbit search finds the plain search's element.  Under 132
    of these 800 moduli (p = 7, 11, 13, 31) the first nonzero coefficient
    lam of that element is not 1, so c^m = lam^m * u^m must be read with
    lam; at p = 31 some moduli also tell lam^-m from lam^m."""
    moduli = [tail + (1,) for tail in itertools.product(range(p), repeat=deg)
              if tail[0] and field_tower._is_irreducible([*tail, 1], p)]
    assert len(moduli) == (p ** deg - p ** (deg // 2)) // deg
    assert ([field_tower._primitive_element(p, m) for m in moduli]
            == [_plain_gamma(p, m) for m in moduli])


def _ref_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Euclid's algorithm by long division over F_p, remainders not made
    monic; the result is the last nonzero remainder, trimmed."""
    def trim(f):
        f = list(f)
        while f and f[-1] == 0:
            f.pop()
        return f

    a, b = trim(a), trim(b)
    while b:
        rem, inv = list(a), pow(b[-1], p - 2, p)
        while len(rem) >= len(b):
            c, shift = rem[-1] * inv % p, len(rem) - len(b)
            for j, bj in enumerate(b):
                rem[shift + j] = (rem[shift + j] - c * bj) % p
            rem = trim(rem)
        a, b = b, rem
    return a


def _ref_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gcd_fp_matches_euclid_by_long_division(p):
    rnd = random.Random(p)

    def poly(deg):
        return [rnd.randrange(p) for _ in range(deg + 1)]

    cases = [([], []), ([], [2]), ([2], []), ([0, 0], [1, 1]), ([p - 1], [2]),
             ([1, 2, 1], [1, 2, 1]), ([2, 0, 2], [0, 0, p - 1, 0])]
    for _ in range(200):
        cases.append((poly(rnd.randrange(-1, 8)), poly(rnd.randrange(-1, 8))))
        common = poly(rnd.randrange(0, 4))  # a nontrivial gcd, non-monic
        cases.append((_ref_mul(common, poly(rnd.randrange(0, 4)), p),
                      _ref_mul(common, poly(rnd.randrange(0, 4)), p)))
    for a, b in cases:
        assert field_tower._gcd_fp(a, b, p) == _ref_gcd(a, b, p), (a, b)


def test_check_odd_prime_matches_a_sieve():
    top = 2 * 10 ** 4
    prime = [True] * top
    for d in range(2, math.isqrt(top) + 1):
        prime[d * d::d] = [False] * len(range(d * d, top, d))
    for p in range(3, top, 2):
        if prime[p]:
            field_tower.check_odd_prime(p)
        else:
            with pytest.raises(ValueError, match=f"^p={p} is not an odd prime$"):
                field_tower.check_odd_prime(p)


def test_field_for_q():
    assert field_for_q(9) is make_field(3, 2)
    assert field_for_q(11) is make_field(11, 1)
    assert cli.field_for_q is field_for_q
    for q in (15, 1, 0, 12):
        with pytest.raises(ValueError, match=f"q={q} is not a prime power"):
            field_for_q(q)
    with pytest.raises(ValueError, match="p=2 is not an odd prime"):
        field_for_q(8)


HUGE_PRIME = 2 ** 61 - 1  # trial division up to its square root takes minutes


@pytest.mark.parametrize("q,message", [
    (HUGE_PRIME, f"q^2 = {HUGE_PRIME ** 2} exceeds the size bound "
                 f"{field_tower.DEFAULT_SIZE_BOUND}; its exp and log tables "
                 f"would take about {44 * HUGE_PRIME ** 2} bytes"),
    (3 * HUGE_PRIME, f"q={3 * HUGE_PRIME} is not a prime power"),
    (37 * 41, f"q^2 = {1517 ** 2} exceeds the size bound "
              f"{field_tower.DEFAULT_SIZE_BOUND}; its exp and log tables "
              f"would take about {44 * 1517 ** 2} bytes"),
], ids=["prime", "small-factor", "large-factors"])
def test_field_for_q_refuses_a_huge_q_before_trial_division(q, message):
    code = ("from redeiperm.field_tower import field_for_q\n"
            f"try:\n    field_for_q({q})\n"
            "except ValueError as exc:\n    print(exc)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=10, check=False)
    assert proc.stdout == message + "\n", proc.stderr
