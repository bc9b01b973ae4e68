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

The environment variable REDEIPERM_SIZE_BOUND overrides the default bound
on q^2 that guards table construction and exhaustive checks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass

from .construct import (PermSpec, binomial_condition,
                        binomial_special_condition, build_perm_poly,
                        check_criterion, count_valid_n, cyclotomic_criterion,
                        family_binomial, family_spec, family_trinomial,
                        is_permutation_bruteforce, packed_fn, sqrt_case,
                        trinomial_condition, trinomial_special_condition,
                        CASE_IN)
from .field_tower import (DEFAULT_SIZE_BOUND, FieldCtx, _prime_factors,
                          check_field_params, make_field)
from .inverse import (agreement_report, bezout, inverse_cyclotomic,
                      inverse_table, lift_inverse, mu_inverse)
from .polyring import Poly, poly_eval, poly_gcd, render_poly, render_terms
from .redei import dickson_eval, gh_coeffs, gh_eval

ENV_SIZE_BOUND = "REDEIPERM_SIZE_BOUND"


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""
    p: int
    k: int
    size_bound: int
    fmt: str
    out: str
    seed: int = 0

    def __post_init__(self):
        if self.size_bound < 9:
            raise ValueError("size bound too small for any odd q")
        if self.fmt not in ("text", "json"):
            raise ValueError("format must be 'text' or 'json'")


def field_for_q(q: int, size_bound: int | None = None) -> FieldCtx:
    """The field with exactly q^2 elements, for a prime-power q."""
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"q={q} is not a prime power")
    p = factors[0]
    k = 0
    qq = q
    while qq > 1:
        qq //= p
        k += 1
    if p ** k != q:
        raise ValueError(f"q={q} is not a prime power")
    return make_field(p, k, size_bound)


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------

def _emit(doc: dict, text: str, cfg: RunConfig) -> None:
    payload = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
               if cfg.fmt == "json" else text)
    if cfg.out == "-":
        sys.stdout.write(payload)
    else:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _unreduced_pairs(spec: PermSpec) -> list[tuple[int, list[int]]]:
    """Term list of x^r * F(x^(q-1), alpha) with nothing normalised."""
    ctx = spec.ctx
    pair = gh_coeffs(spec.n, spec.alpha)
    f = pair.h if spec.variant == "H" else pair.g
    return [(spec.r + (ctx.q - 1) * e, f.terms[e].to_coeffs())
            for e in sorted(f.terms, reverse=True)]


def _spec_record(spec: PermSpec, l: int) -> dict:
    rec = spec.to_record()
    rec["l"] = l
    return rec


# ---------------------------------------------------------------------------
# construct.
# ---------------------------------------------------------------------------

def cmd_construct(cfg: RunConfig, variant: str, n: int, m: int, l: int,
                  run_oracle: bool = True) -> int:
    ctx = make_field(cfg.p, cfg.k, cfg.size_bound)
    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
    verdict = check_criterion(spec)
    poly, evaluator = build_perm_poly(spec)
    oracle_doc: dict = {"ran": False}
    verified = True
    if run_oracle and ctx.q2 <= cfg.size_bound:
        ok, witness = is_permutation_bruteforce(ctx, evaluator, cfg.size_bound)
        oracle_doc = {"ran": True, "is_perm": ok}
        if witness is not None:
            oracle_doc["witness"] = [witness[0].to_coeffs(), witness[1].to_coeffs()]
        verified = ok == verdict.is_perm
    unreduced = _unreduced_pairs(spec)
    doc = {
        "field": ctx.to_record(),
        "spec": _spec_record(spec, l),
        "poly": [[e, c] for e, c in poly.to_pairs()],
        "poly_unreduced": [[e, c] for e, c in unreduced],
        "verdict": verdict.to_record(),
        "oracle": oracle_doc,
        "verified": verified,
    }
    lines = [
        f"field: q = {ctx.q} (p = {ctx.p}, k = {ctx.k}), q^2 = {ctx.q2}",
        f"modulus (low to high): {list(ctx.modulus)}",
        f"gamma: {ctx.gamma.to_coeffs()}",
        f"spec: variant {variant}, n = {n}, m = {m}, l = {l}, "
        f"alpha = {render_terms([(0, spec.alpha.coeffs)])}",
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
    _emit(doc, "\n".join(lines) + "\n", cfg)
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# invert.
# ---------------------------------------------------------------------------

def _compose_identity_holds(ctx: FieldCtx, forward, backward) -> bool:
    fwd, back = packed_fn(ctx, forward), packed_fn(ctx, backward)
    return all(back(fwd(xv)) == xv for xv in range(ctx.q2))


def cmd_invert(cfg: RunConfig, variant: str, n: int, m: int, l: int,
               route: str) -> int:
    ctx = make_field(cfg.p, cfg.k, cfg.size_bound)
    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
    verdict = check_criterion(spec)
    doc = {
        "field": ctx.to_record(),
        "spec": _spec_record(spec, l),
        "verdict": verdict.to_record(),
    }
    lines = [
        f"field: q = {ctx.q} (p = {ctx.p}, k = {ctx.k}), q^2 = {ctx.q2}",
        f"spec: variant {variant}, n = {n}, m = {m}, l = {l}",
        "verdict: " + ("permutation" if verdict.is_perm else "not a permutation"),
    ]
    _, evaluator = build_perm_poly(spec)

    if not verdict.is_perm and route != "table":
        failed = [c.name for c in verdict.conditions if not c.passed]
        doc["error"] = f"not a permutation; failing conditions: {failed}"
        lines.append(f"error: {doc['error']}")
        _emit(doc, "\n".join(lines) + "\n", cfg)
        return 1

    verified = False
    try:
        if route == "cyclotomic":
            inv_poly = inverse_cyclotomic(spec, cfg.size_bound)
            verified = _compose_identity_holds(ctx, evaluator, inv_poly)
            doc["inverse"] = {
                "route": route,
                "poly": [[e, c] for e, c in inv_poly.to_pairs()],
                "bezout": bezout(spec).to_record(),
            }
            lines.append(f"inverse ({route}): {render_poly(inv_poly)}")
        elif route == "closed":
            minv = mu_inverse(spec)
            verified = _compose_identity_holds(ctx, evaluator,
                                               lift_inverse(spec, minv))
            doc["inverse"] = {
                "route": route,
                "case": minv.case,
                "n_inv": minv.n_inv,
                "bezout": bezout(spec).to_record(),
            }
            lines.append(f"inverse ({route}): case {minv.case}, "
                         f"inverse exponent {minv.n_inv}")
        elif route == "table":
            table = inverse_table(ctx, evaluator, cfg.size_bound)
            verified = _compose_identity_holds(ctx, evaluator, table)
            doc["inverse"] = {"route": route}
            lines.append("inverse (table): built exhaustively")
        elif route == "all":
            report = agreement_report(spec, size_bound=cfg.size_bound)
            doc["report"] = report
            computed = sorted(report["routes"])
            lines.append(f"routes computed: {', '.join(computed) or 'none'}")
            for name, reason in sorted(report["skipped"].items()):
                lines.append(f"route {name} skipped: {reason}")
            for name in computed:
                lines.append(f"digest {name}: {report['routes'][name]}")
            lines.append("agreement: " + ("yes" if report["agree"] else "NO"))
            verified = report["agree"]
            if verified and "table" not in report["routes"]:
                # table is ground truth; without it confirm by composition
                inv_poly = inverse_cyclotomic(spec, cfg.size_bound)
                verified = _compose_identity_holds(ctx, evaluator, inv_poly)
        else:
            raise ValueError(f"unknown route {route!r}")
    except (ValueError, ArithmeticError) as exc:
        doc["error"] = str(exc)
        lines.append(f"error: {exc}")
        _emit(doc, "\n".join(lines) + "\n", cfg)
        return 1

    doc["verified"] = verified
    lines.append("composition with P is the identity: "
                 + ("verified" if verified else "FAILED"))
    _emit(doc, "\n".join(lines) + "\n", cfg)
    return 0 if verified else 1


# ---------------------------------------------------------------------------
# count.
# ---------------------------------------------------------------------------

def cmd_count(cfg: RunConfig, m: int, k_max: int | None) -> int:
    check_field_params(cfg.p, cfg.k)
    top = cfg.k if k_max is None else k_max
    if top < cfg.k:
        raise ValueError(f"k-max = {top} is below k = {cfg.k}")
    # p^b > 2^b > size_bound for b = its bit length, so capping the
    # exponent there keeps the power small and the comparison exact
    if cfg.p ** min(top, cfg.size_bound.bit_length()) - 1 > cfg.size_bound:
        raise ValueError(f"q - 1 = {cfg.p}^{top} - 1 exceeds the size bound "
                         f"{cfg.size_bound}")
    rows = []
    lines = []
    for j in range(cfg.k, top + 1):
        q = cfg.p ** j
        count = count_valid_n(q, m, q - 1)
        ratio = f"{count / (q - 1):.6f}"
        rows.append({"q": q, "k": j, "count": count, "total": q - 1,
                     "ratio": ratio})
        lines.append(f"q = {q:>6} (k = {j}): {count}/{q - 1} admissible n, "
                     f"ratio {ratio}")
    doc = {"p": cfg.p, "m": m, "rows": rows}
    _emit(doc, "\n".join(lines) + "\n", cfg)
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


def _check_criterion_grid(qs, n_max: int, m_values, size_bound: int) -> None:
    for q in qs:
        ctx = field_for_q(q, size_bound)
        for l in range(q + 2):
            alpha = ctx.alpha_from_l(l)
            for variant in ("H", "G"):
                for n in range(1, n_max + 1):
                    for m in m_values:
                        spec = PermSpec(variant, n, m, alpha)
                        verdict = check_criterion(spec)
                        _, ev = build_perm_poly(spec)
                        ok, _ = is_permutation_bruteforce(ctx, ev, size_bound)
                        _ensure(
                            ok == verdict.is_perm,
                            f"criterion mismatch at q={q} variant={variant} "
                            f"n={n} m={m} l={l}: oracle={ok}")


def _check_coset_criterion(qs, size_bound: int) -> None:
    for q in qs:
        ctx = field_for_q(q, size_bound)
        for l in range(q + 1):
            alpha = ctx.alpha_from_l(l)
            for variant in ("H", "G"):
                for n in range(1, 7):
                    for m in (-1, 0, 1):
                        spec = PermSpec(variant, n, m, alpha)
                        pair = gh_coeffs(n, alpha)
                        f = pair.h if variant == "H" else pair.g
                        got = cyclotomic_criterion(ctx, spec.r, f)
                        want = check_criterion(spec).is_perm
                        _ensure(got == want,
                                f"coset criterion mismatch at q={q} n={n} "
                                f"m={m} l={l} variant={variant}")


def _check_families(binomial_qs, trinomial_qs, size_bound: int) -> None:
    for q in binomial_qs:
        ctx = field_for_q(q, size_bound)
        for m in (q - 3, q - 2, 1, 0):
            for l in range(q + 1):
                for variant in ("P1", "P2"):
                    poly = family_binomial(ctx, variant, m, l)
                    spec = family_spec(ctx, 3, variant, m, l)
                    built, ev = build_perm_poly(spec)
                    _ensure(poly == built, "family binomial != theorem route")
                    ok, _ = is_permutation_bruteforce(ctx, ev, size_bound)
                    _ensure(ok == binomial_condition(q, m, l),
                            f"binomial condition wrong at q={q} m={m} l={l}")
                    _ensure(ok == binomial_special_condition(q, m, l),
                            f"binomial special condition wrong at q={q} m={m} l={l}")
    for q in trinomial_qs:
        ctx = field_for_q(q, size_bound)
        for m in (q - 4, q - 3, 1, 0):
            for l in range(q + 1):
                for variant in ("P1", "P2"):
                    poly = family_trinomial(ctx, variant, m, l)
                    spec = family_spec(ctx, 5, variant, m, l)
                    built, ev = build_perm_poly(spec)
                    _ensure(poly == built, "family trinomial != theorem route")
                    ok, _ = is_permutation_bruteforce(ctx, ev, size_bound)
                    _ensure(ok == trinomial_condition(q, m, l),
                            f"trinomial condition wrong at q={q} m={m} l={l}")
                    _ensure(ok == trinomial_special_condition(q, m, l),
                            f"trinomial special condition wrong at q={q} m={m} l={l}")


def _check_proof_identities(qs, n_max: int, size_bound: int) -> None:
    for q in qs:
        ctx = field_for_q(q, size_bound)
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


def _check_inverse_routes(qs, n_max: int, m_values, size_bound: int) -> None:
    for q in qs:
        ctx = field_for_q(q, size_bound)
        for l in range(q + 1):
            alpha = ctx.alpha_from_l(l)
            for variant in ("H", "G"):
                for n in range(1, n_max + 1, 2):
                    for m in m_values:
                        spec = PermSpec(variant, n, m, alpha)
                        if not check_criterion(spec).is_perm:
                            continue
                        report = agreement_report(spec, size_bound=size_bound)
                        _ensure("cyclotomic" in report["routes"]
                                and "table" in report["routes"],
                                "baseline inverse routes missing")
                        _ensure(report["agree"],
                                f"inverse routes disagree at q={q} "
                                f"variant={variant} n={n} m={m} l={l}")
                        _, ev = build_perm_poly(spec)
                        inv = inverse_table(ctx, ev, size_bound)
                        _ensure(_compose_identity_holds(ctx, ev, inv),
                                "table inverse does not invert")


def _check_counting(qs) -> None:
    for q in qs:
        count = count_valid_n(q, 0, q - 1)
        ratio = count / (q - 1)
        _ensure(0.30 <= ratio <= 0.55,
                f"admissible-n ratio {ratio} out of range at q={q}")


def _check_determinism(cfg: RunConfig) -> None:
    import io
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        stdout = sys.stdout
        sys.stdout = buf
        try:
            sub = RunConfig(p=3, k=2, size_bound=cfg.size_bound, fmt="json",
                            out="-", seed=cfg.seed)
            cmd_construct(sub, "H", 3, 0, 2)
            cmd_invert(sub, "H", 3, 0, 2, "all")
        finally:
            sys.stdout = stdout
        outs.append(buf.getvalue())
    _ensure(outs[0] == outs[1], "two identical runs differ byte-wise")


def _selftest_suite(level: str, seed: int, size_bound: int):
    rng = random.Random(seed)
    quick = level == "quick"
    f9 = lambda: make_field(3, 2, size_bound)
    f3 = lambda: make_field(3, 1, size_bound)

    checks: list[tuple[str, object]] = [
        ("field axioms and Frobenius (q=9)",
         lambda: _check_field_axioms(f9(), rng, 200 if quick else 1000)),
        ("Zech addition vs componentwise addition (q=3, q=9)",
         lambda: (_check_zech_against_digits(f3()),
                  _check_zech_against_digits(f9()))),
        ("square roots vs exhaustive search (q=9)",
         lambda: _check_sqrt(f9())),
        ("expansion identity (x+s)^n = G_n + H_n*s",
         lambda: [_check_expansion_identity(field_for_q(q, size_bound), rng,
                                            100 if quick else 1000)
                  for q in ((3, 9) if quick else (3, 5, 7, 9, 25))]),
        ("Dickson forms and Waring identity",
         lambda: [_check_dickson_ties(field_for_q(q, size_bound), rng,
                                      100 if quick else 1000)
                  for q in ((9,) if quick else (3, 5, 7, 9, 25))]),
        ("coefficient coprimality gcd(G_n, H_n) = 1",
         lambda: [_check_gh_coprime(field_for_q(q, size_bound),
                                    12 if quick else 30)
                  for q in ((3, 9) if quick else (3, 5, 7, 9))]),
        ("coprimality criterion vs exhaustive oracle",
         lambda: _check_criterion_grid(
             (3, 5) if quick else (3, 5, 7, 9, 11, 13, 25),
             6 if quick else 12,
             (-1, 0, 1) if quick else (-2, -1, 0, 1, 2, 3),
             size_bound)),
        ("coset criterion vs coprimality criterion",
         lambda: _check_coset_criterion((3, 5) if quick else (3, 5, 7, 9),
                                        size_bound)),
        ("proof identities on mu_{q+1}",
         lambda: _check_proof_identities((3, 5) if quick else (3, 5, 7, 9, 11),
                                         7 if quick else 15, size_bound)),
        ("published families and their conditions",
         lambda: _check_families((5,) if quick else (5, 7, 11, 13),
                                 (3,) if quick else (3, 7, 9, 13),
                                 size_bound)),
        ("inverse route agreement and composition",
         lambda: _check_inverse_routes((3, 5) if quick else (3, 5, 7, 9),
                                       5 if quick else 11,
                                       (0,) if quick else (-2, -1, 0, 1, 2, 3),
                                       size_bound)),
        ("admissible-n density",
         lambda: _check_counting((9, 27) if quick else (9, 27, 81, 243))),
    ]
    if not quick:
        checks.append((
            "byte-identical repeated runs",
            lambda: _check_determinism(RunConfig(
                p=3, k=2, size_bound=size_bound, fmt="json", out="-",
                seed=seed))))
    return checks


def cmd_selftest(cfg: RunConfig, level: str) -> int:
    checks = _selftest_suite(level, cfg.seed, cfg.size_bound)
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
                 f"{len(results) - n_pass} failed [{level}]")
    doc = {"level": level, "checks": results, "passed": all_pass}
    _emit(doc, "\n".join(lines) + "\n", cfg)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _default_size_bound() -> int:
    raw = os.environ.get(ENV_SIZE_BOUND)
    if raw is None:
        return DEFAULT_SIZE_BOUND
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"{ENV_SIZE_BOUND} must be an integer, got {raw!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redeiperm",
        description="permutation polynomials of F_{q^2} built from the "
                    "(G_n, H_n) pair, with certified inverses")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_field=True):
        if with_field:
            sp.add_argument("--p", type=int, required=True, help="odd prime")
            sp.add_argument("--k", type=int, default=1,
                            help="extension degree, q = p^k (default 1)")
        sp.add_argument("--size-bound", type=int, default=_default_size_bound(),
                        help="bound on q^2 for tables and exhaustive checks")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--out", default="-", help="output path (default stdout)")

    sp = sub.add_parser("construct", help="build and certify one polynomial")
    add_common(sp)
    sp.add_argument("--variant", choices=("H", "G"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--l", type=int, default=0,
                    help="alpha = gamma^(l(q-1))")
    sp.add_argument("--skip-oracle", action="store_true")

    sp = sub.add_parser("invert", help="compute a compositional inverse")
    add_common(sp)
    sp.add_argument("--variant", choices=("H", "G"), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--l", type=int, default=0)
    sp.add_argument("--route", choices=("cyclotomic", "closed", "table", "all"),
                    default="all")

    sp = sub.add_parser("count", help="density of admissible n per field size")
    add_common(sp)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--k-max", type=int, default=None,
                    help="sweep k from --k to this value")

    sp = sub.add_parser("selftest", help="run module invariant suites")
    add_common(sp, with_field=False)
    sp.add_argument("--level", choices=("quick", "full"), default="quick")
    sp.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            cfg = RunConfig(p=3, k=1, size_bound=args.size_bound,
                            fmt=args.format, out=args.out, seed=args.seed)
            return cmd_selftest(cfg, args.level)
        cfg = RunConfig(p=args.p, k=args.k, size_bound=args.size_bound,
                        fmt=args.format, out=args.out)
        if args.command == "construct":
            return cmd_construct(cfg, args.variant, args.n, args.m, args.l,
                                 run_oracle=not args.skip_oracle)
        if args.command == "invert":
            return cmd_invert(cfg, args.variant, args.n, args.m, args.l,
                              args.route)
        if args.command == "count":
            return cmd_count(cfg, args.m, args.k_max)
        raise SystemExit(2)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an internal cross-check failed
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
