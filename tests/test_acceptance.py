"""Acceptance suite: one check per shipped claim, one printed line each.

Every check is exact (integer and finite-field arithmetic throughout), so
there are no tolerances: a single mismatch anywhere fails the criterion.
The printed summary lines survive pytest's capture so a plain run shows
the per-criterion outcome.
"""

import math
import os
import random
import subprocess
import sys
import time

from redeiperm import (
    CASE_IN,
    Felt,
    PermSpec,
    Poly,
    agreement_report,
    build_perm_poly,
    check_criterion,
    count_valid_n,
    dickson_eval,
    family_condition,
    family_poly,
    family_spec,
    family_special_condition,
    gh_coeffs,
    gh_eval,
    inverse_cyclotomic,
    is_permutation_bruteforce,
    make_field,
    poly_eval,
    poly_gcd,
    sqrt_case,
)

FIELDS_ALL = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2))
FIELDS_SMALL = ((3, 1), (5, 1), (7, 1), (3, 2))


def _report(capsys, k: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE CRITERION {k}: {'PASS' if passed else 'FAIL'} "
              f"- {detail}")


def test_criterion_1_permutation_iff_exhaustive(capsys):
    """The coprimality criterion decides bijectivity, in both directions,
    for every spec on the full grid, against exhaustive evaluation."""
    t0 = time.monotonic()
    mismatches = []
    total = 0
    for p, k in FIELDS_ALL:
        ctx = make_field(p, k)
        q = ctx.q
        for variant in ("H", "G"):
            for n in range(1, 13):
                for m in range(-2, 4):
                    for l in range(q + 1):
                        spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                        verdict = check_criterion(spec)
                        poly, ev = build_perm_poly(spec)
                        ok, _ = is_permutation_bruteforce(ctx, ev)
                        if ok != verdict.is_perm:
                            mismatches.append((q, variant, n, m, l,
                                               verdict.is_perm, ok))
                        if total % 53 == 0:
                            # coefficient form and coset evaluator are built
                            # from independent paths; spot-check they agree
                            assert all(
                                poly_eval(poly, Felt(ctx, xv)).val
                                == ev.eval_packed(xv)
                                for xv in range(ctx.q2)
                            ), (q, variant, n, m, l)
                        total += 1
    elapsed = time.monotonic() - t0
    passed = not mismatches and elapsed <= 180
    _report(capsys, 1, passed,
            f"criterion matches exhaustive bijectivity on {total} specs, "
            f"{len(mismatches)} mismatches, {elapsed:.1f}s")
    assert not mismatches, mismatches[:5]
    assert elapsed <= 180


def test_criterion_2_expansion_and_dickson_identities(capsys):
    """Random-sample checks of the defining expansion (x+s)^n = G + H s,
    its conjugate, the two Dickson reductions, and coprimality of the
    coefficient pair for every alpha."""
    failures = 0
    samples = 0
    for p, k in FIELDS_SMALL:
        ctx = make_field(p, k)
        q = ctx.q
        rng = random.Random(0x5EED ^ q)
        two_inv = ctx.scalar(2).inv()
        for _ in range(1000):
            n = rng.randrange(0, 51)
            alpha = ctx.alpha_from_l(rng.randrange(q + 1))
            x = ctx.from_packed(rng.randrange(ctx.q2))
            g, h = gh_eval(n, alpha, x)
            if g != two_inv * dickson_eval(n, x * x - alpha, 2 * x):
                failures += 1
            for s in ctx.sqrt(alpha):
                if (x + s) ** n != g + h * s:
                    failures += 1
                if (x - s) ** n != g - h * s:
                    failures += 1
                if n % 2 and h != (2 * s).inv() * dickson_eval(
                        n, alpha - x * x, 2 * s):
                    failures += 1
            samples += 1
    gcd_checks = 0
    for p, k in FIELDS_SMALL:
        ctx = make_field(p, k)
        one = Poly.from_terms(ctx, [(0, 1)])
        for l in range(ctx.q + 1):
            alpha = ctx.alpha_from_l(l)
            for n in range(1, 31):
                pair = gh_coeffs(n, alpha)
                if poly_gcd(pair.g, pair.h) != one:
                    failures += 1
                gcd_checks += 1
    _report(capsys, 2, failures == 0,
            f"{samples} random expansion/Dickson samples and {gcd_checks} "
            f"gcd(G_n, H_n) = 1 checks, {failures} failures")
    assert failures == 0


def test_criterion_3_norm_one_subgroup_identities(capsys):
    """Exhaustive checks on the norm-one subgroup: the q-th power of H_n
    is proportional to G_n, the induced map there is G_n/H_n up to a
    constant, and the Moebius ratio (x+s)/(x-s) has the stated power and
    subgroup membership in both square-root cases."""
    failures = 0
    checks = 0
    for q in (3, 5, 7, 9, 11):
        p, k = (3, 2) if q == 9 else (q, 1)
        ctx = make_field(p, k)
        mu = [ctx.zeta ** i for i in range(q + 1)]
        one = ctx.scalar(1)
        minus_one = ctx.scalar(0) - one
        for l in range(q + 1):
            alpha = ctx.alpha_from_l(l)
            case_in = sqrt_case(alpha) == CASE_IN
            for s in ctx.sqrt(alpha):
                for x in mu:
                    if case_in and (x == s or x == minus_one * s):
                        continue
                    ratio = (x + s) / (x - s)
                    d = q - 1 if case_in else q + 1
                    if ratio ** d != minus_one:
                        failures += 1
                    if not ratio.in_mu(2 * d):
                        failures += 1
                    checks += 1
            for n in range(1, 16, 2):
                scale = alpha ** (-((n - 1) // 2))
                for b in mu:
                    g, h = gh_eval(n, alpha, b)
                    if h == ctx.scalar(0):
                        failures += 1
                        continue
                    if h ** q != b ** (-n) * scale * g:
                        failures += 1
                    if b ** n * h ** (q - 1) != scale * g / h:
                        failures += 1
                    checks += 1
    _report(capsys, 3, failures == 0,
            f"{checks} exhaustive subgroup identity checks, "
            f"{failures} failures")
    assert failures == 0


def test_criterion_4_corollary_families(capsys):
    """The binomial and trinomial families' stated iff-conditions, and the
    congruence forms recorded for the special m values, match brute force
    for every l, including the shifted cases m = q-2 and m = q-3."""
    mismatches = []
    checks = 0
    grids = (
        ((5, 7, 11, 13), 3, lambda q: (0, 1, q - 3, q - 2)),
        ((3, 7, 9, 13), 5, lambda q: (0, 1, q - 4, q - 3)),
    )
    for qs, degree, special_ms in grids:
        for q in qs:
            p, k = (3, 2) if q == 9 else (q, 1)
            ctx = make_field(p, k)
            m_values = sorted(set(range(-2, 4)) | set(special_ms(q)))
            for variant in ("P1", "P2"):
                for m in m_values:
                    for l in range(q + 1):
                        poly = family_poly(ctx, degree, variant, m, l)
                        ok, _ = is_permutation_bruteforce(ctx, poly)
                        stated = family_condition(q, degree, m, l)
                        if ok != stated:
                            mismatches.append((q, degree, variant, m, l))
                        if (m in special_ms(q) and
                                family_special_condition(q, degree, m, l) != stated):
                            mismatches.append(("special", q, degree,
                                               variant, m, l))
                        spec = family_spec(ctx, degree, variant, m, l)
                        if build_perm_poly(spec)[0] != poly:
                            mismatches.append(("route", q, degree,
                                               variant, m, l))
                        checks += 1
    _report(capsys, 4, not mismatches,
            f"{checks} family instances vs brute force, "
            f"{len(mismatches)} mismatches")
    assert not mismatches, mismatches[:5]


def test_criterion_5_inverse_triple_agreement(capsys):
    """Every permutation on the small-field grid: the cyclotomic-coset
    inverse, the lifted closed form (when its hypotheses hold), and the
    value table agree pointwise, and the inverse composes to the identity."""
    t0 = time.monotonic()
    failures = []
    n_specs = 0
    closed_cases = set()
    for p, k in FIELDS_SMALL:
        ctx = make_field(p, k)
        q = ctx.q
        for variant in ("H", "G"):
            for n in range(1, 13):
                for m in range(-2, 4):
                    for l in range(q + 1):
                        spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                        if not check_criterion(spec).is_perm:
                            continue
                        n_specs += 1
                        key = (q, variant, n, m, l)
                        report = agreement_report(spec)
                        if not report["agree"]:
                            failures.append(("agree", key))
                        if "cyclotomic" not in report["routes"]:
                            failures.append(("cyclotomic", key))
                        if "table" not in report["routes"]:
                            failures.append(("table", key))
                        if math.gcd(n, q + 1) == 1:
                            if "closed" not in report["routes"]:
                                failures.append(("closed", key))
                            closed_cases.add((variant, sqrt_case(spec.alpha)))
                        elif "closed" not in report["skipped"]:
                            failures.append(("closed-not-skipped", key))
                        inv = inverse_cyclotomic(spec)
                        _, ev = build_perm_poly(spec)
                        if any(poly_eval(inv, Felt(ctx, ev.eval_packed(xv))).val
                               != xv for xv in range(ctx.q2)):
                            failures.append(("compose", key))
    elapsed = time.monotonic() - t0
    # all four closed forms (variant x square-root case) must have run
    passed = not failures and len(closed_cases) == 4 and elapsed <= 120
    _report(capsys, 5, passed,
            f"{n_specs} permutations, routes agree and compose to identity, "
            f"{len(closed_cases)}/4 closed forms exercised, "
            f"{len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert len(closed_cases) == 4
    assert elapsed <= 120


def test_criterion_6_admissible_density(capsys):
    """For q = 3^k the count of admissible n in [1, q-1] at m = 0 sits in
    the band around one half."""
    ratios = {}
    for q in (9, 27, 81, 243):
        ratios[q] = count_valid_n(q, 0) / (q - 1)
    passed = all(0.30 <= r <= 0.55 for r in ratios.values())
    _report(capsys, 6, passed,
            "density of admissible n: " + ", ".join(
                f"q={q}: {r:.4f}" for q, r in ratios.items()))
    assert passed, ratios


def test_criterion_7_term_counts(capsys):
    """When no binomial coefficient vanishes mod p, the reduced polynomial
    has exactly (n+1)/2 terms, for both variants and all m, l."""
    ctx = make_field(11, 1)
    q = ctx.q
    bad = []
    checks = 0
    for n in (3, 5, 7, 9):
        assert all(math.comb(n, j) % 11 for j in range(n + 1)), n
        for variant in ("H", "G"):
            for m in range(-2, 4):
                for l in range(q + 1):
                    spec = PermSpec(variant, n, m, ctx.alpha_from_l(l))
                    poly, _ = build_perm_poly(spec)
                    if len(poly.terms) != (n + 1) // 2:
                        bad.append((variant, n, m, l, len(poly.terms)))
                    checks += 1
    _report(capsys, 7, not bad,
            f"{checks} reduced polynomials have the exact sparse term "
            f"count, {len(bad)} exceptions")
    assert not bad, bad[:5]


def test_criterion_8_determinism(capsys):
    """Two independent processes with the same run configuration produce
    byte-identical machine-readable output, irrespective of hash seeds."""
    commands = [
        ["construct", "--p", "11", "--variant", "H", "--n", "3",
         "--format", "json"],
        ["construct", "--p", "3", "--k", "2", "--variant", "G", "--n", "5",
         "--m", "-1", "--l", "1", "--format", "json"],
        ["invert", "--p", "3", "--k", "2", "--variant", "H", "--n", "3",
         "--m", "0", "--l", "2", "--route", "all", "--format", "json"],
        ["count", "--p", "3", "--k", "2", "--k-max", "4", "--format", "json"],
        ["selftest", "--level", "quick", "--seed", "7", "--format", "json"],
    ]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    diffs = 0
    for args in commands:
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "redeiperm.cli"] + args,
                capture_output=True, env=env, check=False)
            outs.append((proc.returncode, proc.stdout))
        if outs[0] != outs[1] or not outs[0][1]:
            diffs += 1
    _report(capsys, 8, diffs == 0,
            f"{len(commands)} commands re-run in fresh processes, "
            f"{diffs} output differences")
    assert diffs == 0
