"""The range adapter behind every exhaustive loop, against per-point loops.

construct.packed_ranges hands out f's packed values over consecutive ranges
of the points 0, ..., q^2-1.  CosetMap.eval_range must agree with
eval_packed, scan with a first-collision loop over single points (same
table, same witness), and the value digest with a per-point sha256, on
every q^2 <= 2^12 and on F_{3^5}.  The work-count guards keep the loops
from falling back to one call per point.
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from redeiperm import (CosetMap, Felt, InverseTable, PermSpec, Poly,
                       build_perm_poly, check_criterion, cli, inverse_table,
                       is_permutation_bruteforce, make_field)
from redeiperm.construct import RANGE_START, packed_ranges, scan
from redeiperm.inverse import _little_endian, _value_digest


def _odd_prime_powers(top):
    primes = [p for p in range(3, top + 1, 2)
              if all(p % d for d in range(3, p, 2))]
    return [(p, k) for p in primes for k in range(1, top) if p ** k <= top]


# every odd prime power q with q^2 <= 2^12, and F_{3^5} (q^2 = 59049)
FIELDS = _odd_prime_powers(64) + [(3, 5)]


def reference_scan(ctx, fn):
    """The first-collision loop over single points, fn on packed values."""
    first = [-1] * ctx.q2
    for xv in range(ctx.q2):
        v = fn(xv)
        if first[v] >= 0:
            return first, (first[v], xv, v)
        first[v] = xv
    return first, None


def reference_digest(ctx, fn):
    h = hashlib.sha256()
    width = (ctx.q2.bit_length() + 7) // 8
    for xv in range(ctx.q2):
        h.update(fn(xv).to_bytes(width, "little"))
    return h.hexdigest()


def _permutation(ctx):
    """A certified permutation spec of the field; n = 1, m = 0 always is one."""
    for n, m in ((3, 1), (5, 1), (7, 1), (1, 0)):
        spec = PermSpec("H", n, m, ctx.alpha_from_l(1))
        if check_criterion(spec).is_perm:
            return spec


class _RecordedTable(InverseTable):
    """An InverseTable that appends every point it evaluates to calls."""

    def __init__(self, ctx, table, calls):
        super().__init__(ctx, table)
        self.calls = calls

    def eval_range(self, start, stop):
        self.calls.extend(range(start, stop))
        return super().eval_range(start, stop)


def _colliding_at(ctx, b, calls=None):
    """The identity on packed values except b -> b // 2: first collision at b."""
    table = [xv if xv != b else b // 2 for xv in range(ctx.q2)]
    return _RecordedTable(ctx, table, [] if calls is None else calls)


def _range_starts(ctx):
    identity = InverseTable(ctx, list(range(ctx.q2)))
    return [start for start, _ in packed_ranges(ctx, identity)]


@st.composite
def coset_maps(draw):
    """A CosetMap with a random exponent and table, zeros in T allowed."""
    ctx = make_field(*draw(st.sampled_from(FIELDS)))
    entry = st.one_of(st.just(0), st.integers(1, ctx.units))
    table = draw(st.lists(entry, min_size=ctx.q + 1, max_size=ctx.q + 1))
    return CosetMap(ctx, draw(st.integers(0, 3 * ctx.units)), table)


@settings(max_examples=60)
@given(coset_maps(), st.data())
def test_eval_range_matches_eval_packed(cm, data):
    q2 = cm.ctx.q2
    start = data.draw(st.one_of(st.just(0), st.integers(0, q2)))
    stop = data.draw(st.one_of(st.just(start), st.integers(start, q2)))
    assert cm.eval_range(start, stop) == [cm.eval_packed(xv)
                                          for xv in range(start, stop)]


@settings(max_examples=40)
@given(coset_maps())
def test_scan_of_a_coset_map_matches_the_point_loop(cm):
    assert scan(cm.ctx, cm) == reference_scan(cm.ctx, cm.eval_packed)


@pytest.mark.parametrize("p,k", FIELDS)
def test_scan_and_digest_of_every_map_kind_match_the_point_loops(p, k):
    ctx = make_field(p, k)
    poly, cm = build_perm_poly(_permutation(ctx))
    table = inverse_table(ctx, cm)
    square = Poly.from_terms(ctx, [(2, 1)])  # no permutation of an odd field
    maps = [(cm, cm.eval_packed), (table, lambda xv: table(Felt(ctx, xv)).val),
            (poly, lambda xv: poly(Felt(ctx, xv)).val),
            (square, lambda xv: square(Felt(ctx, xv)).val)]
    for f, fn in maps:
        assert scan(ctx, f) == reference_scan(ctx, fn)
        assert _value_digest(ctx, f) == reference_digest(ctx, fn)


@pytest.mark.parametrize("p,k", [(7, 2), (3, 5)])
def test_first_collision_around_every_range_boundary(p, k):
    ctx = make_field(p, k)
    starts = _range_starts(ctx)
    assert starts[:3] == [0, RANGE_START, 2 * RANGE_START]
    for b in sorted({s + d for s in starts[1:] for d in (-1, 0, 1)}):
        f = _colliding_at(ctx, b)
        table, witness = scan(ctx, f)
        assert witness == (b // 2, b, b // 2)
        assert (table, witness) == reference_scan(
            ctx, lambda xv: f(Felt(ctx, xv)).val)


def test_a_collision_is_evaluated_at_most_about_twice(q25):
    for ctx in (q25, make_field(3, 5)):
        for b in [1, 2, 63, 64, 65] + [s + d for s in _range_starts(ctx)[2:]
                                       for d in (-1, 0, 1)]:
            calls = []
            _, witness = scan(ctx, _colliding_at(ctx, b, calls))
            assert witness[1] == b
            assert calls == list(range(len(calls)))
            assert len(calls) < max(2 * b, 64) + 64


def test_coset_maps_are_never_evaluated_point_by_point(monkeypatch):
    """On F_{81^2} the oracle, the table inverse and the digest of a CosetMap
    read whole ranges; CosetMap.eval_packed is never called."""
    ctx = make_field(3, 4)
    _, cm = build_perm_poly(_permutation(ctx))
    calls = []
    real = CosetMap.eval_packed

    def counted(self, xv):
        calls.append(xv)
        return real(self, xv)

    monkeypatch.setattr(CosetMap, "eval_packed", counted)
    assert is_permutation_bruteforce(ctx, cm) == (True, None)
    inverse_table(ctx, cm)
    digest = _value_digest(ctx, cm)
    assert calls == []
    monkeypatch.undo()
    assert digest == reference_digest(ctx, cm.eval_packed)


def test_composition_check_reads_both_value_lists(q9):
    spec = _permutation(q9)
    _, cm = build_perm_poly(spec)
    table = inverse_table(q9, cm)
    assert cli._compose_identity_holds(q9, cm, table)
    assert cli._compose_identity_holds(q9, table, cm)
    assert not cli._compose_identity_holds(q9, cm, cm)
    swapped = list(table.eval_range(0, q9.q2))
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not cli._compose_identity_holds(q9, cm, InverseTable(q9, swapped))


@pytest.mark.parametrize("width", range(1, 9))
def test_little_endian_matches_to_bytes(width):
    top = (1 << (8 * width)) - 1
    values = [v & top for v in (0, 1, top, top >> 1, 0x0102030405060708, 256)]
    assert _little_endian(values, width) == b"".join(
        v.to_bytes(width, "little") for v in values)
    assert _little_endian([], width) == b""
