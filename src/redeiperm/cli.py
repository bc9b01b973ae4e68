"""Command-line front end.

Subcommands:

    construct   build one permutation polynomial, print it with its verdict,
                and confirm the verdict against the exhaustive oracle
    invert      compute the compositional inverse by one route or by all
                routes with an agreement report
    count       tabulate how many n in [1, q-1] pass the coprimality
                condition, per field size
    selftest    run the invariant suites of every module (quick or full)

alpha is always specified through the integer l with alpha = gamma^(l(q-1)),
which keeps inputs canonical; raw coefficient vectors are never accepted.
Machine-readable output is canonical JSON (sorted keys, no whitespace), so
two runs with the same configuration produce byte-identical bytes.  Exit
status is 0 exactly when the command's mathematical claim was verified, 1
when it was not, 2 for rejected input or an unwritable --out path, and 3
when an internal arithmetic cross-check failed.

--size-bound caps q^2 (q - 1 for count) before make_field builds the tables
every exhaustive check reads; selftest's fields are fixed and small.

invert's --route is a name in inverse.ROUTES, built by inverse.route_inverse
(the only function that names a route's constructor) and verified by
composition with P, or "all", verified exactly when the table route (the
ground truth) was computed and every computed digest agreed.

Each subcommand is declared by one add(...) call in _build_parser, which
adds the shared field, output and spec options and stores the handler;
main calls that handler with the parsed arguments.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import Iterator

from .construct import (CASE_IN, PermSpec, build_perm_poly, check_criterion,
                        count_valid_n, cyclotomic_criterion, family_condition,
                        family_poly, family_spec, family_special_condition,
                        is_permutation_bruteforce, packed_ranges,
                        perm_coset_map, perm_factor, perm_poly, sqrt_case)
from .field_tower import (DEFAULT_SIZE_BOUND, FieldCtx, check_field_params,
                          check_odd_prime, field_for_q, make_field)
from .inverse import (ROUTES, agreement_report, bezout, inverse_table,
                      mu_inverse, route_inverse)
from .polyring import Poly, poly_eval, poly_gcd, render_poly, render_terms
from .redei import dickson_eval, gh_coeffs, gh_eval


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------

def _emit(doc: dict, text: str, args: argparse.Namespace) -> None:
    payload = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
               if args.format == "json" else text)
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _unreduced_pairs(spec: PermSpec, f: Poly) -> list[tuple[int, list[int]]]:
    """Term list of x^r * f(x^(q-1)), f = perm_factor(spec), unnormalised."""
    ctx = spec.ctx
    return [(spec.r + (ctx.q - 1) * e, f.terms[e].to_coeffs())
            for e in sorted(f.terms, reverse=True)]


def _header(args: argparse.Namespace):
    """The field, the spec and its verdict: (spec, verdict, the JSON's
    field/spec/verdict part, the text's first line)."""
    ctx = make_field(args.p, args.k, args.size_bound)
    spec = PermSpec(args.variant, args.n, args.m, ctx.alpha_from_l(args.l))
    verdict = check_criterion(spec)
    doc = {"field": ctx.to_record(), "spec": {**spec.to_record(), "l": args.l},
           "verdict": verdict.to_record()}
    return (spec, verdict, doc,
            f"field: q = {ctx.q} (p = {ctx.p}, k = {ctx.k}), q^2 = {ctx.q2}")


# ---------------------------------------------------------------------------
# construct.
# ---------------------------------------------------------------------------

def cmd_construct(args: argparse.Namespace) -> int:
    spec, verdict, doc, first = _header(args)
    ctx = spec.ctx
    f = perm_factor(spec)  # one gh_coeffs call for both coefficient forms
    poly = perm_poly(spec, f)
    oracle_doc: dict = {"ran": False}
    verified = True
    if not args.skip_oracle:
        ok, witness = is_permutation_bruteforce(ctx, perm_coset_map(spec))
        oracle_doc = {"ran": True, "is_perm": ok}
        if witness is not None:
            oracle_doc["witness"] = [witness[0].to_coeffs(), witness[1].to_coeffs()]
        verified = ok == verdict.is_perm
    unreduced = _unreduced_pairs(spec, f)
    doc.update(poly=[[e, c] for e, c in poly.to_pairs()],
               poly_unreduced=[[e, c] for e, c in unreduced],
               oracle=oracle_doc, verified=verified)
    lines = [
        first,
        f"modulus (low to high): {list(ctx.modulus)}",
        f"gamma: {ctx.gamma.to_coeffs()}",
        f"spec: variant {args.variant}, n = {args.n}, m = {args.m}, "
        f"l = {args.l}, alpha = {render_terms([(0, spec.alpha.coeffs)])}",
        f"exponent r = n + m(q+1) = {spec.r}",
        f"unreduced: {render_terms(unreduced)}",
        f"reduced:   {render_poly(poly)}",
        "case: square root of alpha "
        + ("lies in mu_{q+1}" if verdict.case == CASE_IN else "lies outside mu_{q+1}"),
    ]
    for c in verdict.conditions:
        lines.append(f"condition {c.name}: gcd = {c.value} -> "
                     + ("pass" if c.passed else "FAIL"))
    lines.append("verdict: " + ("permutation" if verdict.is_perm
                                else "not a permutation"))
    if oracle_doc["ran"]:
        lines.append("oracle: exhaustive over %d points -> %s" % (
            ctx.q2, "permutation" if oracle_doc["is_perm"] else "not a permutation"))
        lines.append("result: " + ("verdict confirmed" if verified
                                   else "VERDICT CONTRADICTED BY ORACLE"))
    else:
        lines.append("oracle: skipped")
    _emit(doc, "\n".join(lines) + "\n", args)
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# invert.
# ---------------------------------------------------------------------------

def _compose_identity_holds(ctx: FieldCtx, forward, backward) -> bool:
    back = [v for _, values in packed_ranges(ctx, backward) for v in values]
    return all(back[v] == xv for start, values in packed_ranges(ctx, forward)
               for xv, v in enumerate(values, start))


def cmd_invert(args: argparse.Namespace) -> int:
    spec, verdict, doc, first = _header(args)
    ctx, route = spec.ctx, args.route
    lines = [
        first,
        f"spec: variant {args.variant}, n = {args.n}, m = {args.m}, l = {args.l}",
        "verdict: " + ("permutation" if verdict.is_perm else "not a permutation"),
    ]
    try:
        if route != "all":
            inverse = route_inverse(spec, route)
            if route == "cyclotomic":
                doc["inverse"] = {"poly": [[e, c] for e, c in inverse.to_pairs()],
                                  "bezout": bezout(spec).to_record()}
                lines.append(f"inverse ({route}): {render_poly(inverse)}")
            elif route == "closed":
                minv = mu_inverse(spec)
                doc["inverse"] = {"case": minv.case, "n_inv": minv.n_inv,
                                  "bezout": bezout(spec).to_record()}
                lines.append(f"inverse ({route}): case {minv.case}, "
                             f"inverse exponent {minv.n_inv}")
            else:
                doc["inverse"] = {}
                lines.append("inverse (table): built exhaustively")
            doc["inverse"]["route"] = route
            verified = _compose_identity_holds(ctx, perm_coset_map(spec), inverse)
        elif not verdict.is_perm:
            raise ValueError(verdict.failure)
        else:
            report = agreement_report(spec)
            doc["report"] = report
            computed = sorted(report["routes"])
            lines.append(f"routes computed: {', '.join(computed) or 'none'}")
            for name, reason in sorted(report["skipped"].items()):
                lines.append(f"route {name} skipped: {reason}")
            for name in computed:
                lines.append(f"digest {name}: {report['routes'][name]}")
            lines.append("agreement: " + ("yes" if report["agree"] else "NO"))
            # the table route is the ground truth
            verified = report["agree"] and "table" in report["routes"]
    except ValueError as exc:  # ArithmeticError is a failed check: exit 3
        doc["error"] = str(exc)
        lines.append(f"error: {exc}")
        _emit(doc, "\n".join(lines) + "\n", args)
        return 1

    doc["verified"] = verified
    lines.append("composition with P is the identity: "
                 + ("verified" if verified else "FAILED"))
    _emit(doc, "\n".join(lines) + "\n", args)
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# count.
# ---------------------------------------------------------------------------

def cmd_count(args: argparse.Namespace) -> int:
    p, k, size_bound, m = args.p, args.k, args.size_bound, args.m
    check_field_params(p, k)
    top = k if args.k_max is None else args.k_max
    if top < k:
        raise ValueError(f"k-max = {top} is below k = {k}")
    # p^b - 1 >= 2^b > size_bound for b = its bit length + 1 (b >= 1, even
    # at bound 0), so capping the exponent there keeps the power small and
    # the comparison exact
    if p ** min(top, size_bound.bit_length() + 1) - 1 > size_bound:
        raise ValueError(f"q - 1 = {p}^{top} - 1 exceeds the size bound "
                         f"{size_bound}")
    check_odd_prime(p)
    rows = []
    lines = []
    for j in range(k, top + 1):
        q = p ** j
        count = count_valid_n(q, m)
        ratio = f"{count / (q - 1):.6f}"
        rows.append({"q": q, "k": j, "count": count, "total": q - 1,
                     "ratio": ratio})
        lines.append(f"q = {q:>6} (k = {j}): {count}/{q - 1} admissible n, "
                     f"ratio {ratio}")
    doc = {"p": p, "m": m, "rows": rows}
    _emit(doc, "\n".join(lines) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# selftest: the invariant suites of all modules.
# ---------------------------------------------------------------------------

def _ensure(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _check_field_axioms(ctx: FieldCtx, rng: random.Random, samples: int) -> None:
    N = ctx.units
    for _ in range(samples):
        a = ctx.from_packed(rng.randrange(ctx.q2))
        b = ctx.from_packed(rng.randrange(ctx.q2))
        c = ctx.from_packed(rng.randrange(ctx.q2))
        _ensure((a + b) + c == a + (b + c), "addition not associative")
        _ensure(a * (b + c) == a * b + a * c, "distributivity fails")
        _ensure(a + b == b + a and a * b == b * a, "commutativity fails")
        if a.val:
            _ensure(a * a.inv() == 1, "inverse fails")
            _ensure(a ** N == 1, "unit group order fails")
            _ensure(a ** ctx.q2 == a, "Frobenius fixed point fails")
        _ensure(a.frobenius_q().frobenius_q() == a, "Frobenius not order 2")


def _check_zech_against_digits(ctx: FieldCtx) -> None:
    _ensure(ctx.add_logs((0, d) for d in range(ctx.units)) == list(ctx._zech),
            "the stored Zech table differs from the table-free rule")
    for av in range(ctx.q2):
        for bv in range(ctx.q2):
            _ensure(ctx.add_packed(av, bv) == ctx._add_digits(av, bv),
                    "Zech addition differs from componentwise addition")


def _check_sqrt(ctx: FieldCtx) -> None:
    for a in ctx.elements():
        roots = ctx.sqrt(a)
        for r in roots:
            _ensure(r * r == a, "square root does not square back")
        by_search = [b for b in ctx.elements() if b * b == a]
        _ensure(sorted(r.val for r in roots) == sorted(b.val for b in by_search),
                "square roots differ from exhaustive search")


def _check_expansion_identity(ctx: FieldCtx, rng: random.Random,
                              samples: int) -> None:
    q = ctx.q
    for idx in range(samples):
        n = rng.randrange(0, 51)
        alpha = ctx.alpha_from_l(rng.randrange(q + 1))
        x = ctx.from_packed(rng.randrange(ctx.q2))
        g, h = gh_eval(n, alpha, x)
        if idx % 10 == 0:
            # the coefficient route must reproduce the same point values
            nc = n % 25
            pair = gh_coeffs(nc, alpha)
            gc, hc = gh_eval(nc, alpha, x)
            _ensure(poly_eval(pair.g, x) == gc,
                    "G_n coefficients disagree with point evaluation")
            _ensure(poly_eval(pair.h, x) == hc,
                    "H_n coefficients disagree with point evaluation")
        for s in ctx.sqrt(alpha):
            _ensure((x + s) ** n == g + h * s, "(x+s)^n != G + H*s")
            _ensure((x - s) ** n == g - h * s, "(x-s)^n != G - H*s")


def _check_dickson_ties(ctx: FieldCtx, rng: random.Random, samples: int) -> None:
    q = ctx.q
    for _ in range(samples):
        n = rng.randrange(0, 51)
        alpha = ctx.alpha_from_l(rng.randrange(q + 1))
        x = ctx.from_packed(rng.randrange(ctx.q2))
        g, h = gh_eval(n, alpha, x)
        two_inv = ctx.scalar(2).inv()
        _ensure(g == two_inv * dickson_eval(n, x * x - alpha, 2 * x),
                "G_n does not match its Dickson form")
        if n % 2:
            for s in ctx.sqrt(alpha):
                _ensure(h == (2 * s).inv() * dickson_eval(n, alpha - x * x, 2 * s),
                        "H_n does not match its Dickson form")
        u = ctx.from_packed(rng.randrange(ctx.q2))
        v = ctx.from_packed(rng.randrange(ctx.q2))
        _ensure(u ** n + v ** n == dickson_eval(n, u * v, u + v),
                "Waring identity fails")


def _check_gh_coprime(ctx: FieldCtx, n_max: int) -> None:
    one = Poly.one(ctx)
    for l in range(ctx.q + 1):
        alpha = ctx.alpha_from_l(l)
        for n in range(1, n_max + 1):
            pair = gh_coeffs(n, alpha)
            _ensure(poly_gcd(pair.g, pair.h) == one,
                    f"gcd(G_{n}, H_{n}) != 1 at l={l}")


def _spec_grid(ctx: FieldCtx, n_values, m_values) -> Iterator[tuple[int, PermSpec]]:
    """(l, spec) for l = 0..q, variant H then G, n and m, nested in that order."""
    for l in range(ctx.q + 1):
        alpha = ctx.alpha_from_l(l)
        for variant in ("H", "G"):
            for n in n_values:
                for m in m_values:
                    yield l, PermSpec(variant, n, m, alpha)


def _check_criterion_grid(qs, n_max: int, m_values) -> None:
    for q in qs:
        ctx = field_for_q(q)
        for l, spec in _spec_grid(ctx, range(1, n_max + 1), m_values):
            ok, _ = is_permutation_bruteforce(ctx, perm_coset_map(spec))
            _ensure(ok == check_criterion(spec).is_perm,
                    f"criterion mismatch at q={q} variant={spec.variant} "
                    f"n={spec.n} m={spec.m} l={l}: oracle={ok}")


def _check_coset_criterion(qs) -> None:
    for q in qs:
        ctx = field_for_q(q)
        for l, spec in _spec_grid(ctx, range(1, 7), (-1, 0, 1)):
            got = cyclotomic_criterion(ctx, spec.r, perm_factor(spec))
            _ensure(got == check_criterion(spec).is_perm,
                    f"coset criterion mismatch at q={q} n={spec.n} "
                    f"m={spec.m} l={l} variant={spec.variant}")


def _check_families(qs_by_degree: dict) -> None:
    for degree, qs in qs_by_degree.items():
        for q in qs:
            ctx = field_for_q(q)
            for m in (q - (degree + 3) // 2, q - (degree + 1) // 2, 1, 0):
                for l in range(q + 1):
                    for variant in ("P1", "P2"):
                        at = f"degree {degree} {variant} q={q} m={m} l={l}"
                        poly = family_poly(ctx, degree, variant, m, l)
                        built, ev = build_perm_poly(
                            family_spec(ctx, degree, variant, m, l))
                        _ensure(poly == built, f"family != theorem route at {at}")
                        ok, _ = is_permutation_bruteforce(ctx, ev)
                        _ensure(ok == family_condition(q, degree, m, l),
                                f"family condition wrong at {at}")
                        _ensure(ok == family_special_condition(q, degree, m, l),
                                f"special condition wrong at {at}")


def _check_proof_identities(qs, n_max: int) -> None:
    for q in qs:
        ctx = field_for_q(q)
        mu = ctx.mu(q + 1)
        for l in range(q + 1):
            alpha = ctx.alpha_from_l(l)
            roots = ctx.sqrt(alpha)
            root_in = sqrt_case(alpha) == CASE_IN
            for n in range(1, n_max + 1, 2):
                am = alpha ** (-((n - 1) // 2))
                for b in mu:
                    g, h = gh_eval(n, alpha, b)
                    _ensure(h.val != 0 and g.val != 0,
                            "G_n or H_n vanishes on mu_{q+1}")
                    _ensure(h.frobenius_q() == b ** (-n) * am * g,
                            "q-th power identity for H_n fails")
                    _ensure(b ** n * h ** (q - 1) == am * g / h,
                            "coset map identity fails")
            for s in roots:
                for b in mu:
                    num, den = b + s, b - s
                    if den.val == 0 or num.val == 0:
                        continue
                    ratio = num / den
                    if root_in:
                        _ensure(ratio ** (q - 1) == ctx.neg_one(),
                                "ratio^(q-1) != -1 in the root-in case")
                    else:
                        _ensure(ratio ** (q + 1) == ctx.neg_one(),
                                "ratio^(q+1) != -1 in the root-out case")


def _check_inverse_routes(qs, n_max: int, m_values) -> None:
    for q in qs:
        ctx = field_for_q(q)
        for l, spec in _spec_grid(ctx, range(1, n_max + 1, 2), m_values):
            if not check_criterion(spec).is_perm:
                continue
            report = agreement_report(spec)
            _ensure("cyclotomic" in report["routes"] and "table" in report["routes"],
                    "baseline inverse routes missing")
            _ensure(report["agree"],
                    f"inverse routes disagree at q={q} variant={spec.variant} "
                    f"n={spec.n} m={spec.m} l={l}")
            ev = perm_coset_map(spec)
            inv = inverse_table(ctx, ev)
            _ensure(_compose_identity_holds(ctx, ev, inv),
                    "table inverse does not invert")


def _check_counting(qs) -> None:
    for q in qs:
        count = count_valid_n(q, 0)
        ratio = count / (q - 1)
        _ensure(0.30 <= ratio <= 0.55,
                f"admissible-n ratio {ratio} out of range at q={q}")


def _check_determinism() -> None:
    import io
    from contextlib import redirect_stdout
    argv = ["--p", "3", "--k", "2", "--variant", "H", "--n", "3", "--l", "2",
            "--format", "json"]
    outs = []
    for _ in range(2):
        with redirect_stdout(io.StringIO()) as buf:
            codes = (main(["construct", *argv]),
                     main(["invert", *argv, "--route", "all"]))
        _ensure(codes == (0, 0), f"a repeated run exited with {codes}")
        outs.append(buf.getvalue())
    _ensure(outs[0] == outs[1], "two identical runs differ byte-wise")


def _selftest_suite(level: str, seed: int):
    rng = random.Random(seed)
    quick = level == "quick"
    f9 = lambda: make_field(3, 2)
    f3 = lambda: make_field(3, 1)

    checks: list[tuple[str, object]] = [
        ("field axioms and Frobenius (q=9)",
         lambda: _check_field_axioms(f9(), rng, 200 if quick else 1000)),
        ("Zech addition vs componentwise addition (q=3, q=9)",
         lambda: (_check_zech_against_digits(f3()),
                  _check_zech_against_digits(f9()))),
        ("square roots vs exhaustive search (q=9)",
         lambda: _check_sqrt(f9())),
        ("expansion identity (x+s)^n = G_n + H_n*s",
         lambda: [_check_expansion_identity(field_for_q(q), rng,
                                            100 if quick else 1000)
                  for q in ((3, 9) if quick else (3, 5, 7, 9, 25))]),
        ("Dickson forms and Waring identity",
         lambda: [_check_dickson_ties(field_for_q(q), rng,
                                      100 if quick else 1000)
                  for q in ((9,) if quick else (3, 5, 7, 9, 25))]),
        ("coefficient coprimality gcd(G_n, H_n) = 1",
         lambda: [_check_gh_coprime(field_for_q(q),
                                    12 if quick else 30)
                  for q in ((3, 9) if quick else (3, 5, 7, 9))]),
        ("coprimality criterion vs exhaustive oracle",
         lambda: _check_criterion_grid(
             (3, 5) if quick else (3, 5, 7, 9, 11, 13, 25),
             6 if quick else 12,
             (-1, 0, 1) if quick else (-2, -1, 0, 1, 2, 3))),
        ("coset criterion vs coprimality criterion",
         lambda: _check_coset_criterion((3, 5) if quick else (3, 5, 7, 9))),
        ("proof identities on mu_{q+1}",
         lambda: _check_proof_identities((3, 5) if quick else (3, 5, 7, 9, 11),
                                         7 if quick else 15)),
        ("published families and their conditions",
         lambda: _check_families(
             {3: (5,), 5: (3,)} if quick
             else {3: (5, 7, 11, 13), 5: (3, 7, 9, 13)})),
        ("inverse route agreement and composition",
         lambda: _check_inverse_routes((3, 5) if quick else (3, 5, 7, 9),
                                       5 if quick else 11,
                                       (0,) if quick else (-2, -1, 0, 1, 2, 3))),
        ("admissible-n density",
         lambda: _check_counting((9, 27) if quick else (9, 27, 81, 243))),
    ]
    if not quick:
        checks.append((
            "byte-identical repeated runs",
            _check_determinism))
    return checks


def cmd_selftest(args: argparse.Namespace) -> int:
    checks = _selftest_suite(args.level, args.seed)
    results = []
    all_pass = True
    lines = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            fn()
            passed, detail = True, ""
        except Exception as exc:  # a failing invariant is the signal here
            passed, detail = False, f"{type(exc).__name__}: {exc}"
            all_pass = False
        elapsed = time.perf_counter() - start
        results.append({"name": name, "passed": passed, "detail": detail})
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{status} {name} [{elapsed:.2f}s]{suffix}")
    n_pass = sum(1 for r in results if r["passed"])
    lines.append(f"{len(results)} checks: {n_pass} passed, "
                 f"{len(results) - n_pass} failed [{args.level}]")
    doc = {"level": args.level, "checks": results, "passed": all_pass}
    _emit(doc, "\n".join(lines) + "\n", args)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redeiperm",
        description="permutation polynomials of F_{q^2} built from the "
                    "(G_n, H_n) pair, with certified inverses")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, field=True, spec=False):
        sp = sub.add_parser(name, help=help)
        if field:
            sp.add_argument("--p", type=int, required=True, help="odd prime")
            sp.add_argument("--k", type=int, default=1,
                            help="extension degree, q = p^k (default 1)")
            sp.add_argument("--size-bound", type=int, default=DEFAULT_SIZE_BOUND,
                            help="bound on q^2 for tables and exhaustive checks")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default="-", help="output path (default stdout)")
        if spec:
            sp.add_argument("--variant", choices=("H", "G"), required=True)
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--m", type=int, default=0)
            sp.add_argument("--l", type=int, default=0,
                            help="alpha = gamma^(l(q-1))")
        sp.set_defaults(run=handler)
        return sp

    sp = add("construct", cmd_construct, "build and certify one polynomial",
             spec=True)
    sp.add_argument("--skip-oracle", action="store_true")

    sp = add("invert", cmd_invert, "compute a compositional inverse", spec=True)
    sp.add_argument("--route", choices=(*ROUTES, "all"), default="all")

    sp = add("count", cmd_count, "density of admissible n per field size")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--k-max", type=int, default=None,
                    help="sweep k from --k to this value")

    sp = add("selftest", cmd_selftest, "run module invariant suites", field=False)
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an internal cross-check failed
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
