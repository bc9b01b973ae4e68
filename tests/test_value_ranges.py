"""The ranges and the one packed table behind every exhaustive loop,
against per-point loops.

construct._ranges splits the points 0, ..., q^2-1 into consecutive ranges,
and inverse.packed_table lays a whole map out in one unsigned array.
CosetMap.eval_range and packed_table must agree with eval_packed, scan
with a first-collision loop over single points (same table, same witness),
and the value digest with a per-point sha256, on every q^2 <= 2^12 and on
F_{3^5}.  The work-count guards keep the loops from falling back to one
call per point; the lifetime tests make a row pass only in the oracle (in
exponent order, CosetMap.exp_rows), the scan, packed_table and the
composition check (in point order, CosetMap.log_rows), lay the rows out
only in packed_table, and the scan and the oracle pass over the rows only
of a CosetMap that permutes by the AGW test, leaving nothing on the map;
the tracemalloc guards keep the scan and the digest to one unsigned array
of q^2 entries, 4 bytes per point.
The composition check reads the backward map's packed table at P's rows,
with no scan of P: it refuses a corrupted inverse of every kind, and a
scan that returns the identity for every bijection.
The AGW test only orders the work: forced either way, it leaves every
scan's table and witness unchanged, and it agrees with the gcd criterion
and with the oracle.  The oracle certifies a map that passes it from one
byte per value, marked one checked coset row at a time, with one AGW test
per call, no layout and no list of preimages.  Forced past the AGW test,
it still refuses every non-bijection, and the values of the rows it marks
are the map's values at the nonzero points; log_rows is the map in point
order for every kind of map.
"""

import gc
import hashlib
import itertools
import math
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from redeiperm import (CosetMap, Felt, InverseTable, PermSpec, Poly,
                       build_perm_poly, check_criterion, cli, construct,
                       inverse, inverse_table, is_permutation_bruteforce,
                       make_field)
from redeiperm.construct import RANGE_START, _ranges, perm_coset_map, scan
from redeiperm.inverse import (ROUTES, _little_endian, _value_digest,
                               packed_table, route_inverse)


def _odd_prime_powers(top):
    primes = [p for p in range(3, top + 1, 2)
              if all(p % d for d in range(3, p, 2))]
    return [(p, k) for p in primes for k in range(1, top) if p ** k <= top]


# every odd prime power q with q^2 <= 2^12, and F_{3^5} (q^2 = 59049)
SMALL_FIELDS = _odd_prime_powers(64)
FIELDS = SMALL_FIELDS + [(3, 5)]


def reference_scan(ctx, fn):
    """The first-collision loop over single points, fn on packed values,
    into an unsigned array whose slots with no preimage hold q^2."""
    q2 = ctx.q2
    first = array("I", [q2]) * q2
    for xv in range(q2):
        v = fn(xv)
        if first[v] != q2:
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
    return [start for start, _ in _ranges(ctx.q2)]


def _late_start(ctx):
    """The first range start at or past q^2/8, or q^2 when there is none:
    points from there on are late in the packed order."""
    return next((s for s in _range_starts(ctx) if 8 * s >= ctx.q2), ctx.q2)


def _exponents(ctx):
    """0, exponents at or past q^2-1, negative ones, and even ones, which
    share the factor 2 with q-1."""
    N = ctx.units
    return st.one_of(st.just(0), st.integers(N, 3 * N), st.integers(-3 * N, -1),
                     st.integers(-N, N).map(lambda v: 2 * v),
                     st.integers(1, N))


@st.composite
def coset_maps(draw):
    """A CosetMap with a random exponent and table, zeros in T allowed."""
    ctx = make_field(*draw(st.sampled_from(FIELDS)))
    entry = st.one_of(st.just(0), st.integers(1, ctx.units))
    table = draw(st.lists(entry, min_size=ctx.q + 1, max_size=ctx.q + 1))
    return CosetMap(ctx, draw(_exponents(ctx)), table)


@settings(max_examples=150)
@given(coset_maps(), st.data())
def test_eval_range_matches_eval_packed(cm, data):
    """On any window, empty and one-point ones and those around a range
    boundary included, the per-point comprehension, packed_table's layout
    of the rows, and its range-by-range fill of a list-backed InverseTable
    of the map's values (given that one window, zeros elsewhere) equal
    eval_packed."""
    ctx = cm.ctx
    q2, edge = ctx.q2, data.draw(st.sampled_from(_range_starts(ctx)))
    near = st.integers(max(0, edge - 3), min(q2 - 1, edge + 3))
    start = data.draw(st.one_of(st.just(0), near, st.integers(0, q2)))
    stop = start + data.draw(st.one_of(st.just(min(1, q2 - start)),
                                       st.integers(0, q2 - start)))
    want = [cm.eval_packed(xv) for xv in range(start, stop)]
    assert cm.eval_range(start, stop) == want
    assert packed_table(ctx, cm)[start:stop].tolist() == want
    listed = InverseTable(ctx, cm.eval_range(0, q2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inverse, "_ranges", lambda q2: iter([(start, stop)]))
        filled = packed_table(ctx, listed)
    assert filled.tolist() == [0] * start + want + [0] * (q2 - stop)


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
        assert scan(ctx, f)[0].typecode == "I"
        assert packed_table(ctx, f).tolist() == [fn(xv) for xv in range(ctx.q2)]
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
    assert not cli._compose_identity_holds(q9, cm, cm)
    swapped = list(table.eval_range(0, q9.q2))
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not cli._compose_identity_holds(q9, cm, InverseTable(q9, swapped))


def _corrupted(ctx, backward):
    """backward with one value changed: two entries of an InverseTable
    swapped, one entry of a CosetMap's T or one coefficient of a Poly
    multiplied by gamma."""
    g = ctx.gamma
    if isinstance(backward, InverseTable):
        table = backward.eval_range(0, ctx.q2)
        table[1], table[2] = table[2], table[1]
        return InverseTable(ctx, table)
    if isinstance(backward, CosetMap):
        return CosetMap(ctx, backward.e, [ctx.mul_packed(backward.table[0], g.val),
                                          *backward.table[1:]])
    e = min(backward.terms)
    return Poly(ctx, {**backward.terms, e: backward.terms[e] * g})


@pytest.mark.parametrize("p,k", [(3, 2), (11, 1), (3, 4)])
def test_the_composition_check_refuses_a_corrupted_backward_of_every_kind(p, k):
    """Every route's inverse of P, P.inverse() and a list-backed copy of
    the table inverse compose with P to the identity; each of them with
    one value changed, and P itself, do not.  The packed table of an
    array-backed InverseTable is its own array."""
    ctx = make_field(p, k)
    perm = perm_coset_map(_permutation(ctx))
    routes = {route: route_inverse(_permutation(ctx), route, perm)
              for route in ROUTES}
    table = routes["table"]
    assert packed_table(ctx, table) is table._table
    listed = InverseTable(ctx, table.eval_range(0, ctx.q2).tolist())
    for backward in (*routes.values(), perm.inverse(), listed):
        assert cli._compose_identity_holds(ctx, perm, backward)
        assert not cli._compose_identity_holds(ctx, perm,
                                               _corrupted(ctx, backward))
    assert not cli._compose_identity_holds(ctx, perm, perm)


def test_a_scan_that_returns_the_identity_fails_the_table_route(
        monkeypatch, capsys):
    """Every binding of scan made to return the table first[v] = v for a
    bijection: invert --route table exits 1 with FAILED, and the
    selftest's route check raises."""
    real = construct.scan

    def identity_scan(ctx, f):
        table, collision = real(ctx, f)
        if collision is None:
            table = array(table.typecode, range(ctx.q2))
        return table, collision

    bound = [m for m in (construct, inverse, cli) if vars(m).get("scan") is real]
    assert inverse in bound
    for module in bound:
        monkeypatch.setattr(module, "scan", identity_scan)
    rc = cli.main(["invert", "--p", "3", "--k", "2", "--variant", "H", "--n",
                   "3", "--l", "2", "--route", "table"])
    assert rc == 1
    assert "composition with P is the identity: FAILED" in capsys.readouterr().out
    with pytest.raises(AssertionError):
        cli._check_inverse_routes((3,), 5, (0,))


@pytest.mark.parametrize("width", range(1, 9))
def test_little_endian_matches_to_bytes(width):
    """From an 'I' or 'Q' array of any itemsize down to width, read as it
    is and left unchanged."""
    top = (1 << (8 * width)) - 1
    values = [v & top for v in (0, 1, top, top >> 1, 0x0102030405060708, 256)]
    want = b"".join(v.to_bytes(width, "little") for v in values)
    for code in "IQ":
        if array(code).itemsize >= width:
            packed = array(code, values)
            assert _little_endian(packed, width) == want
            assert packed.tolist() == values
            assert _little_endian(array(code), width) == b""


# -- the coset rows (CosetMap.log_rows) and their packed layout ------------------

def _record(monkeypatch, *names):
    """Make CosetMap.<name>, for each name given (log_rows and exp_rows
    when none is), append (the function that called it, name, its map) to
    the returned list.  A row pass is one call of either: exp_rows called
    from log_rows belongs to that log_rows pass and is not recorded again.
    A log_rows pass hands out the rows in point order, an exp_rows pass in
    exponent order; one called from packed_table is the one kind that lays
    the rows out, each value at its point, into a packed-order array."""
    passes = []
    for name in names or ("log_rows", "exp_rows"):
        def recorded(self, real=getattr(CosetMap, name), name=name):
            caller = sys._getframe(1).f_code.co_name
            if caller != "log_rows":
                passes.append((caller, name, self))
            return real(self)
        monkeypatch.setattr(CosetMap, name, recorded)
    return passes


def _counted_eval_range(monkeypatch):
    """Make CosetMap.eval_range, the packed-order read, append each window
    it reads to the returned list."""
    reads = []
    real = CosetMap.eval_range
    monkeypatch.setattr(CosetMap, "eval_range", lambda self, *span:
                        reads.append(span) or real(self, *span))
    return reads


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_a_traversal_switches_to_the_log_table_once(p, k, monkeypatch):
    """packed_table lays a CosetMap out in packed order from one log_rows
    pass.  scan makes exactly one log_rows pass, and the oracle exactly one
    exp_rows pass and no log_rows pass, for a CosetMap that permutes by the
    AGW test, and neither makes one for any other map; neither lays
    anything out.  The values equal eval_packed at every point, the scan
    the point loop, and the AGW verdict the scan's and the oracle's."""
    ctx = make_field(p, k)
    passes = _record(monkeypatch)
    zero_row = [0] + [ctx.gamma.val] * ctx.q
    _, perm = build_perm_poly(_permutation(ctx))
    for cm in (CosetMap(ctx, 5, zero_row), perm,
               CosetMap(ctx, -7, list(range(1, ctx.q + 2))),
               CosetMap(ctx, ctx.units + 2, zero_row[::-1])):
        passes.clear()
        values = packed_table(ctx, cm).tolist()
        assert passes == [("packed_table", "log_rows", cm)]
        assert values == [cm.eval_packed(xv) for xv in range(ctx.q2)]
        passes.clear()
        table, witness = scan(ctx, cm)
        assert (table, witness) == reference_scan(ctx, cm.eval_packed)
        assert cm.permutes() == (witness is None)
        assert passes == ([("scan", "log_rows", cm)] if witness is None
                          else [])
        passes.clear()
        assert is_permutation_bruteforce(ctx, cm)[0] == (witness is None)
        assert passes == ([("is_permutation_bruteforce", "exp_rows", cm)]
                          if witness is None else [])
    assert perm.permutes() and not CosetMap(ctx, 5, zero_row).permutes()


def _corrupt_row(monkeypatch, row):
    """Make CosetMap._raw_rows rotate the given row, in exponent order, by
    one, before CosetMap.exp_rows checks it."""
    real = CosetMap._raw_rows

    def corrupted(self):
        for s, values in real(self):
            yield s, (values[1:] + values[:1] if s == row else values)

    monkeypatch.setattr(CosetMap, "_raw_rows", corrupted)


@pytest.mark.parametrize("row", [0, 5, 11])
def test_a_corrupted_row_of_the_log_table_is_refused(q11, row, monkeypatch):
    """One rotated row is refused by both row producers, in exponent and
    in point order, and by every loop that reads the rows: the oracle, the
    scan and the digest."""
    _, cm = build_perm_poly(_permutation(q11))
    good = dict(cm.exp_rows())
    _corrupt_row(monkeypatch, row)
    raw = dict(cm._raw_rows())
    assert [s for s in raw if raw[s] != good[s]] == [row]
    message = f"log-order value table disagrees with the map at gamma\\^{row}$"
    for rows in (cm.exp_rows, cm.log_rows):
        with pytest.raises(ArithmeticError, match=message):
            list(rows())
    with pytest.raises(ArithmeticError, match=message):
        is_permutation_bruteforce(q11, cm)
    with pytest.raises(ArithmeticError, match=message):
        scan(q11, cm)
    with pytest.raises(ArithmeticError, match=message):
        _value_digest(q11, cm)


@pytest.mark.parametrize("route", ["table", "closed", "all"])
def test_a_corrupted_row_of_the_log_table_exits_3_from_invert(route, capsys,
                                                              monkeypatch):
    _corrupt_row(monkeypatch, 3)
    rc = cli.main(["invert", "--p", "11", "--variant", "H", "--n", "5",
                   "--m", "1", "--l", "1", "--route", route])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == ("error: log-order value table disagrees with "
                            "the map at gamma^3\n")


def test_an_early_collision_never_builds_the_log_table(monkeypatch):
    """Scans and oracle calls on non-permutations of F_{81^2}, which collide
    in the first eighth of the points, make no coset row."""
    ctx = make_field(3, 4)
    built = _record(monkeypatch, "_raw_rows")
    square = CosetMap(ctx, 2, [1] * (ctx.q + 1))  # 1 and -1 = p-1 collide
    assert scan(ctx, square)[1] == (1, ctx.p - 1, 1)
    for n, m, l in ((2, 0, 1), (5, 0, 2), (4, 1, 2)):
        spec = PermSpec("H", n, m, ctx.alpha_from_l(l))
        assert not check_criterion(spec).is_perm
        _, cm = build_perm_poly(spec)
        ok, pair = is_permutation_bruteforce(ctx, cm)
        assert not ok and 8 * pair[1].val < ctx.q2
        with pytest.raises(ValueError, match="not a bijection"):
            inverse_table(ctx, cm)
    assert built == []


def test_a_full_traversal_leaves_no_log_table_behind(monkeypatch):
    """The oracle makes one row pass in exponent order and the table
    inverse one in point order, and neither lays anything out; the digest
    lays the rows out in packed order once, in packed_table, and the
    composition check reads P's rows in point order, one more row pass,
    and no scan.  Nothing holds a layout, a table or a row afterwards,
    not the map, not a finished loop: the four leave under one byte per
    point traced (a layout is 4)."""
    ctx = make_field(3, 4)
    _, cm = build_perm_poly(_permutation(ctx))
    _value_digest(ctx, cm)  # hashlib is imported on the first digest
    passes = _record(monkeypatch)
    inverse = inverse_table(ctx, cm)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_permutation_bruteforce(ctx, cm) == (True, None)
        assert inverse_table(ctx, cm).eval_range(0, ctx.q2) == (
            inverse.eval_range(0, ctx.q2))
        _value_digest(ctx, cm)
        assert cli._compose_identity_holds(ctx, cm, inverse)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [(caller, name) for caller, name, _ in passes] == [
        ("scan", "log_rows"), ("is_permutation_bruteforce", "exp_rows"),
        ("scan", "log_rows"), ("packed_table", "log_rows"),
        ("_compose_identity_holds", "log_rows")]
    assert all(m is cm for _, _, m in passes)
    assert kept < ctx.q2


@st.composite
def near_permutations(draw):
    """A CosetMap with gcd(e, q-1) = 1 whose sigma is a permutation of 0..q
    with at most one value repeated: at most two cosets share an image, so
    the first collision can fall anywhere in the scan."""
    ctx = make_field(*draw(st.sampled_from(SMALL_FIELDS)))
    q, N = ctx.q, ctx.units
    e = draw(st.integers(-N, N).filter(lambda v: math.gcd(v, q - 1) == 1))
    sigma = draw(st.permutations(range(q + 1)))
    s1, s2 = draw(st.lists(st.integers(0, q), min_size=2, max_size=2))
    sigma[s2] = sigma[s1]
    turns = draw(st.lists(st.integers(0, q - 2), min_size=q + 1,
                          max_size=q + 1))
    return CosetMap(ctx, e, [ctx._exp[(sg - e * s + (q + 1) * k) % N]
                             for s, (sg, k) in enumerate(zip(sigma, turns))])


@settings(max_examples=80)
@given(near_permutations())
def test_scan_of_a_near_permutation_matches_the_point_loop(cm):
    assert scan(cm.ctx, cm) == reference_scan(cm.ctx, cm.eval_packed)


# -- the discrete-log-order pass of scan ------------------------------------------

STRADDLE_FIELDS = [(3, 3), (7, 2), (61, 1), (3, 4)]  # q = 27, 49, 61, 81


def _straddling_maps(ctx):
    """{(a late, log a < log b): (map, witness)}, the first map of each
    kind whose first collision (a, b, v) has b late (_late_start).  Each
    map is the identity with coset s2 sent onto coset s1, turned by
    gamma^((q+1)k): its collisions are the pairs {y, y*t}, y in coset s2
    and t = T[s2], and the first is the pair with least maximum."""
    q1, N, exp, log = ctx.q + 1, ctx.units, ctx._exp, ctx._log
    late = _late_start(ctx)
    found = {}
    for d, s1, k in itertools.product(range(1, q1), range(q1), range(q1 - 2)):
        s2 = (s1 + d) % q1
        lt = (s1 - s2 + q1 * k) % N
        y, yt = min(((exp[(s2 + q1 * j) % N], exp[(s2 + q1 * j + lt) % N])
                     for j in range(q1 - 2)), key=max)
        a, b = sorted((y, yt))
        kind = (a >= late, log[a] < log[b])
        if b >= late and kind not in found:
            table = [1] * q1
            table[s2] = exp[lt]
            found[kind] = (CosetMap(ctx, 1, table), (a, b, yt))
            if len(found) == 4:
                break
    return found


@pytest.mark.parametrize("p,k", STRADDLE_FIELDS)
def test_a_witness_past_the_switch_is_the_one_of_the_point_loop(
        p, k, monkeypatch):
    """A late first collision, with the other point early or late, in both
    log orders, gives the point loop's witness and partial table from the
    packed-order loop: these maps fail the AGW test, so no row pass is
    made.  The identity they are built from passes it and is read in one
    row pass, with no range of it read in packed order."""
    ctx = make_field(p, k)
    maps = _straddling_maps(ctx)
    assert sorted(maps) == [(False, False), (False, True),
                            (True, False), (True, True)]
    passes = _record(monkeypatch)
    for cm, witness in maps.values():
        passes.clear()
        want = reference_scan(ctx, cm.eval_packed)
        assert want[1] == witness
        assert scan(ctx, cm) == want
        assert passes == []
    reads = _counted_eval_range(monkeypatch)
    identity = CosetMap(ctx, 1, [1] * (ctx.q + 1))
    passes.clear()
    table, witness = scan(ctx, identity)
    assert (table.tolist(), witness) == (list(range(ctx.q2)), None)
    assert passes == [("scan", "log_rows", identity)]
    assert reads == []


@pytest.mark.parametrize("p,k", STRADDLE_FIELDS)
def test_a_zero_entry_of_the_table_collides_in_the_first_eighth(p, k):
    """No coset starts past the first eighth: the F_q-line through any
    y != 0 meets x^k + span(1, ..., x^(k-1)), so every coset holds a point
    below 2q.  A zero entry of T sends its coset onto 0 and collides there,
    with the point loop's witness and table."""
    ctx = make_field(p, k)
    bound = 2 * ctx.q
    assert 8 * bound <= ctx.q2
    for s in range(ctx.q + 1):
        table = [ctx.gamma.val] * (ctx.q + 1)
        table[s] = 0
        cm = CosetMap(ctx, 1, table)
        want = reference_scan(ctx, cm.eval_packed)
        assert want[1][0] == want[1][2] == 0 and want[1][1] < bound
        assert scan(ctx, cm) == want


def _oracle_cases(ctx):
    """(map, point-loop result) for a permutation, early-colliding
    non-permutations and the straddling maps of the field."""
    _, perm = build_perm_poly(_permutation(ctx))
    maps = [perm, CosetMap(ctx, 2, [1] * (ctx.q + 1))]
    for n, m, l in ((2, 0, 1), (2, 1, 2), (4, -1, 3)):  # even n never permutes
        maps.append(build_perm_poly(PermSpec("H", n, m, ctx.alpha_from_l(l)))[1])
    maps += [cm for cm, _ in _straddling_maps(ctx).values()]
    return [(cm, reference_scan(ctx, cm.eval_packed)) for cm in maps]


@pytest.mark.parametrize("verdict", [True, False])
@pytest.mark.parametrize("p,k", STRADDLE_FIELDS)
def test_the_agw_test_only_orders_the_work(p, k, verdict, monkeypatch):
    """With CosetMap.permutes forced to one answer, scan, the oracle and
    the table inverse still give the point loop's table and witness.  Forced
    True, every scan makes one row pass in point order, every oracle call
    on a map with gcd(e, q-1) = 1 one in exponent order and any other none
    (its spread is no bijection), and a collision reruns the packed order
    over the map itself; forced False, none makes a row pass and every
    scan reads in packed order.  Neither lays the rows out."""
    ctx = make_field(p, k)
    cases = _oracle_cases(ctx)
    assert [want[1] is None for _, want in cases].count(True) == 1
    monkeypatch.setattr(CosetMap, "permutes", lambda self: verdict)
    passes = _record(monkeypatch)
    reads = _counted_eval_range(monkeypatch)
    for cm, (table, witness) in cases:
        passes.clear()
        reads.clear()
        assert scan(ctx, cm) == (table, witness)
        assert passes == ([("scan", "log_rows", cm)] if verdict else [])
        assert bool(reads) == (not verdict or witness is not None)
        passes.clear()
        oracle = ([("is_permutation_bruteforce", "exp_rows", cm)]
                  if verdict and math.gcd(cm.e, ctx.q - 1) == 1 else [])
        if witness is None:
            assert is_permutation_bruteforce(ctx, cm) == (True, None)
            assert passes == oracle
            assert inverse_table(ctx, cm).eval_range(0, ctx.q2) == table
        else:
            a, b, _ = witness
            assert is_permutation_bruteforce(ctx, cm) == (
                False, (Felt(ctx, a), Felt(ctx, b)))
            assert passes == oracle
            with pytest.raises(ValueError, match="not a bijection"):
                inverse_table(ctx, cm)


def test_the_inverse_table_holds_four_bytes_per_point():
    """On F_{243^2}, the table inverse of a CosetMap permutation keeps one
    'I' array and no int object, about 4 bytes per point, and the oracle
    peaks at under 2 bytes per point (tracemalloc)."""
    ctx = make_field(3, 5)
    _, cm = build_perm_poly(_permutation(ctx))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = inverse_table(ctx, cm)
        kept = tracemalloc.get_traced_memory()[0] - before
        del table
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert is_permutation_bruteforce(ctx, cm) == (True, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert kept <= 5 * ctx.q2
    assert peak < 2 * ctx.q2


@pytest.mark.parametrize("p,k", [(3, 4), (3, 5)])
def test_the_table_inverse_holds_one_array_of_preimages(p, k):
    """On F_{81^2} and F_{243^2}, the table inverse of a permuting CosetMap
    holds one q^2-entry 'I' array, the preimages, and one coset row at a
    time: its traced peak is under 6 bytes per point, where a second
    q^2-entry array, such as packed_table's layout of the map, would take
    it to 8."""
    ctx = make_field(p, k)
    _, cm = build_perm_poly(_permutation(ctx))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inverse_table(ctx, cm)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 6 * ctx.q2


def test_the_digest_of_a_coset_map_holds_one_array_of_values():
    """On F_{243^2}, the value digest of a permuting CosetMap holds one
    q^2-entry 'I' array in packed order, and one coset row and one range
    and its bytes at a time: its traced peak is under 8 bytes per point,
    where a list of the map's values would take 8 alone."""
    ctx = make_field(3, 5)
    _, cm = build_perm_poly(_permutation(ctx))
    _value_digest(ctx, cm)  # hashlib is imported on the first digest
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _value_digest(ctx, cm)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * ctx.q2


# -- the oracle's one byte per value ------------------------------------------------

def test_the_oracle_certifies_a_permutation_without_the_packed_loop(
        monkeypatch):
    """A permutation of F_{81^2} that passes the AGW test is certified by
    the log-order pass alone: the packed-order loop never runs."""
    ctx = make_field(3, 4)
    _, cm = build_perm_poly(_permutation(ctx))

    def refused(*args):
        raise AssertionError("the packed-order loop ran")

    monkeypatch.setattr(construct, "_packed_scan", refused)
    assert is_permutation_bruteforce(ctx, cm) == (True, None)


def test_the_oracle_runs_the_agw_test_once_per_call(monkeypatch):
    """One permutes() call per oracle call, whether the map permutes or
    not: a non-permutation does not pay for the AGW test twice."""
    ctx = make_field(3, 4)
    _, perm = build_perm_poly(_permutation(ctx))
    _, other = build_perm_poly(PermSpec("H", 2, 0, ctx.alpha_from_l(1)))
    calls = []
    real = CosetMap.permutes
    monkeypatch.setattr(CosetMap, "permutes",
                        lambda self: calls.append(self) or real(self))
    for cm, ok in ((perm, True), (other, False)):
        calls.clear()
        assert is_permutation_bruteforce(ctx, cm)[0] is ok
        assert calls == [cm]


def test_a_forced_log_order_pass_over_a_zero_entry_keeps_the_witness(
        q11, monkeypatch):
    """With the AGW test forced True, a zero entry of T sends its whole
    coset onto 0, the value the oracle's byte array holds from the start
    (0 -> 0); the log-order pass leaves slots unmarked and the oracle
    gives the point loop's witness."""
    monkeypatch.setattr(CosetMap, "permutes", lambda self: True)
    for s in (0, 5, q11.q):
        table = [q11.gamma.val] * (q11.q + 1)
        table[s] = 0
        cm = CosetMap(q11, 1, table)
        _, (a, b, _) = reference_scan(q11, cm.eval_packed)
        assert a == 0
        assert is_permutation_bruteforce(q11, cm) == (
            False, (Felt(q11, a), Felt(q11, b)))


@pytest.mark.parametrize("p,k", STRADDLE_FIELDS)
def test_the_oracle_never_builds_a_log_table(p, k, monkeypatch):
    """With packed_table, the one layout of the rows, refusing, the
    oracle still certifies a permutation from its rows, and with the AGW
    test forced True it still gives the point loop's witness for the
    straddling maps and for zero entries of T: a repeat in the rows reruns
    the packed order over the map itself.  Every row pass is the
    oracle's own."""
    ctx = make_field(p, k)
    _, perm = build_perm_poly(_permutation(ctx))

    def refused(*args):
        raise AssertionError("the oracle laid the rows out")

    monkeypatch.setattr(inverse, "packed_table", refused)
    passes = _record(monkeypatch)
    assert is_permutation_bruteforce(ctx, perm) == (True, None)
    monkeypatch.setattr(CosetMap, "permutes", lambda self: True)
    maps = [cm for cm, _ in _straddling_maps(ctx).values()]
    for s in (0, ctx.q // 2, ctx.q):
        table = [ctx.gamma.val] * (ctx.q + 1)
        table[s] = 0
        maps.append(CosetMap(ctx, 1, table))
    for cm in maps:
        _, (a, b, _) = reference_scan(ctx, cm.eval_packed)
        assert is_permutation_bruteforce(ctx, cm) == (
            False, (Felt(ctx, a), Felt(ctx, b)))
    assert passes == [("is_permutation_bruteforce", "exp_rows", cm)
                      for cm in (perm, *maps)]


def test_the_oracle_keeps_one_byte_per_value_and_one_row():
    """On F_{81^2} the oracle's traced peak is under 2 bytes per point: a
    q^2-byte array and one coset row at a time, with no layout and no
    list of preimages."""
    ctx = make_field(3, 4)
    _, cm = build_perm_poly(_permutation(ctx))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_permutation_bruteforce(ctx, cm) == (True, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * ctx.q2


def _map_kinds(ctx):
    """{kind: CosetMap}: a certified permutation and the ways a map of
    coset shape fails to permute, with exponents past q^2-1 and below 0."""
    q, N, exp = ctx.q, ctx.units, ctx._exp
    sigma = list(range(q + 1))
    sigma[1] = sigma[0]

    def through(e, sigma):  # c_s = sigma(s), so the map on mu_{q+1} is sigma
        return [exp[(sg - e * s) % N] for s, sg in enumerate(sigma)]

    zero_entry = [ctx.gamma.val] * (q + 1)
    zero_entry[2] = 0
    unit = next(e for e in range(3, N) if math.gcd(e, N) == 1)
    return {
        "permutation": build_perm_poly(_permutation(ctx))[1],
        "gcd(e, q-1) > 1, sigma a permutation": CosetMap(
            ctx, 2, through(2, range(q + 1))),
        "sigma with a repeated value": CosetMap(ctx, 1, through(1, sigma)),
        "a zero entry of T": CosetMap(ctx, 1, zero_entry),
        "a negative exponent": CosetMap(ctx, -unit,
                                        through(-unit, sigma[::-1])),
        "an exponent past q^2-1": CosetMap(ctx, N + unit,
                                           through(unit, range(q + 1))),
        "e = 0": CosetMap(ctx, 0, through(0, range(q + 1))),
        "T all zero": CosetMap(ctx, 1, [0] * (q + 1)),
    }


def _oracle_rows(monkeypatch):
    """Make every exp_rows pass append its rows' values to the returned
    list, as its reader receives them."""
    values = []
    real = CosetMap.exp_rows
    monkeypatch.setattr(CosetMap, "exp_rows", lambda self: (
        values.extend(row) or (s, row) for s, row in real(self)))
    return values


@pytest.mark.parametrize("p,k", [(3, 2), (11, 1), (3, 4)])
def test_the_oracle_refuses_a_non_bijection_whatever_the_agw_test_says(
        p, k, monkeypatch):
    """With CosetMap.permutes forced True, the oracle still refuses the
    three ways a coset map fails to permute, with the point loop's first
    collision, which eval_packed confirms.  gcd(e, q-1) > 1 repeats values
    inside every row while each row in exponent order holds q-1 distinct
    ones, so the oracle must find from the spread itself that
    k -> e*k mod (q-1) is no bijection and make no row pass; a repeated
    sigma value and a zero entry of T leave a slot unmarked after one."""
    ctx = make_field(p, k)
    kinds = _map_kinds(ctx)
    monkeypatch.setattr(CosetMap, "permutes", lambda self: True)
    passes = _record(monkeypatch)
    for kind, rows in (("gcd(e, q-1) > 1, sigma a permutation", []),
                       ("sigma with a repeated value", ["exp_rows"]),
                       ("a zero entry of T", ["exp_rows"])):
        cm = kinds[kind]
        passes.clear()
        _, (a, b, v) = reference_scan(ctx, cm.eval_packed)
        ok, pair = is_permutation_bruteforce(ctx, cm)
        assert (ok, pair) == (False, (Felt(ctx, a), Felt(ctx, b))), kind
        assert a != b and cm.eval_packed(a) == cm.eval_packed(b) == v
        assert [name for _, name, _ in passes] == rows, kind


@pytest.mark.parametrize("p,k", [(3, 2), (11, 1), (5, 2), (3, 3), (3, 4)])
def test_the_oracle_rows_hold_the_values_of_the_map(p, k, monkeypatch):
    """For every kind of map, with the AGW test forced True so that the
    oracle reads the rows of each, the values in the rows it marks, sorted,
    are the map's values at the q^2-1 nonzero points, sorted: rows in
    exponent order lose no value and add none.  A map whose spread is no
    bijection (gcd(e, q-1) > 1, e = 0) has no such rows, and the oracle
    reads none."""
    ctx = make_field(p, k)
    monkeypatch.setattr(CosetMap, "permutes", lambda self: True)
    marked = _oracle_rows(monkeypatch)
    for kind, cm in _map_kinds(ctx).items():
        marked.clear()
        values = sorted(cm.eval_range(1, ctx.q2))
        ok, _ = is_permutation_bruteforce(ctx, cm)
        assert ok == (len(set(values)) == ctx.units), kind
        if math.gcd(cm.e, ctx.q - 1) == 1:
            assert sorted(marked) == values, kind
        else:
            assert marked == [], kind


@pytest.mark.parametrize("p,k", [(3, 4), (3, 5)])
def test_log_rows_are_the_map_in_point_order(p, k):
    """On F_{81^2} and F_{243^2}, for every kind of map, log_rows hands out
    row s with its points exp[s::q+1], as the values at gamma^(s + (q+1)k),
    k = 0..q-2, by eval_packed, and as the spread of exp_rows' row s."""
    ctx = make_field(p, k)
    exp, q1, N = ctx._exp, ctx.q + 1, ctx.units
    for kind, cm in _map_kinds(ctx).items():
        spread = cm.spread()
        for (points, row), (s, by_exp) in zip(cm.log_rows(), cm.exp_rows(),
                                              strict=True):
            assert points == exp[s::q1], (kind, s)
            assert row == tuple(cm.eval_packed(exp[(s + q1 * j) % N])
                                for j in range(ctx.q - 1)), (kind, s)
            assert row == tuple(by_exp[i] for i in spread), (kind, s)


def test_log_rows_carry_their_points():
    """On F_{81^2}, for a permutation, a map whose T has a zero entry and
    maps with e < 0 and e >= q^2-1, row s of log_rows comes with its points
    gamma^(s + (q+1)k), k = 0..q-2, in that order, stepped by field
    multiplication; the q+1 rows' points cover F_{q^2}^* exactly once; and
    row[k] is the map at points[k] by eval_packed."""
    ctx = make_field(3, 4)
    kinds = _map_kinds(ctx)
    step = ctx.gamma ** (ctx.q + 1)
    for kind in ("permutation", "a zero entry of T", "a negative exponent",
                 "an exponent past q^2-1"):
        cm, covered = kinds[kind], []
        for s, (points, row) in enumerate(cm.log_rows()):
            x, want = ctx.gamma ** s, []
            for _ in range(ctx.q - 1):
                want.append(x.val)
                x = x * step
            assert points == want, (kind, s)
            assert list(row) == [cm.eval_packed(xv) for xv in points], (kind, s)
            covered += points
        assert s == ctx.q, kind
        assert sorted(covered) == list(range(1, ctx.q2)), kind
