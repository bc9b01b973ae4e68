"""One benchmark process: cold set-up, the closed loop and its correctness checks.

run.py starts this file in a fresh interpreter with the checkout's src/ on
PYTHONPATH, so make_field's per-process cache cannot hide the set-up cost:

    python3 bench/worker.py probe WORKLOAD
    python3 bench/worker.py run WORKLOAD SEED SECONDS TRACE

Both print one JSON object on stdout.  The loop is closed and single-threaded:
one caller submits the next spec only after the previous one returned.  The
untraced run and the probe report times in seconds at the nominal host speed
of hostspeed.py; the traced run reports wall seconds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import redeiperm
from redeiperm import construct, field_tower, inverse
from redeiperm.construct import PermSpec

import hostspeed
import spans
from workloads import GOLDEN_CLI, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "data" / "v1"
SPANS_DIR = ROOT / ".bench_out"
CLI_TIMEOUT_S = 60
CLI_ROUNDS = 3  # rounds of the golden commands per pass
IMPORT_PROBE = ("import time; t = time.perf_counter_ns(); import redeiperm.cli; "
                "print(time.perf_counter_ns() - t)")

# Bound before any tracing, so counting inverse terms outside the timed region
# never adds spans.
_inverse_cyclotomic = inverse.inverse_cyclotomic


class Checks:
    """The correctness checks of one run; every failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def inversion_problems(case, report: dict, routes, expected_digest=None) -> list[str]:
    """Why report is not a verified inverse over routes; [] when it is.

    Every route must be computed, except a closed-route refusal that the
    spec's gcds predict, and that refusal must name the failing gcd.  Every
    digest must equal expected_digest, by default the table route's, which
    inverts the value table exhaustively.
    """
    problems = []
    refusal = case.refusal_gcd()
    for route in routes:
        if route in report["routes"]:
            if route == "closed" and refusal != 1:
                problems.append(f"closed route applied with gcd(n, q+1) = {refusal}")
            continue
        reason = report["skipped"].get(route, "not computed")
        planned = (route == "closed" and refusal != 1
                   and f"gcd(n, q+1) = {refusal}" in reason)
        if not planned:
            problems.append(f"{route} skipped: {reason}")
    if not report["agree"]:
        problems.append("routes disagree")
    expected = expected_digest or report["routes"].get("table")
    for route, digest in sorted(report["routes"].items()):
        if digest != expected:
            problems.append(f"{route} digest {digest[:16]} != expected {str(expected)[:16]}")
    return problems


def new_counts() -> dict:
    return dict.fromkeys((
        "specs", "perms", "oracle_points", "inverted", "closed_refusals",
        "digest_points", "table_inverse_points", "cyclotomic_inverses",
        "cyclotomic_terms", "cyclotomic_term_slots", "poly_eval_points",
        "poly_eval_term_evals"), 0)


def fingerprint(counts: dict) -> str:
    return hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()


class Loop:
    """Runs passes over a workload's specs, collecting samples and counts."""

    def __init__(self, workload, specs: dict, checks: Checks, split: bool, clock=None):
        self.workload = workload
        self.specs = specs
        self.checks = checks
        # split: one agreement_report per route, so that the traced run can
        # derive each route's digest time
        self.split = split
        # a HostClock, or None for wall seconds
        self.clock = clock
        # (start, end) perf_counter pairs of the passing calls
        self.certify: list[tuple[float, float]] = []
        self.invert: list[tuple[float, float]] = []
        self.cli: list[tuple[float, float]] = []

    def mark(self) -> tuple[int, int, int]:
        return len(self.certify), len(self.invert), len(self.cli)

    def scaled(self, start=(0, 0, 0), end=None) -> tuple[list[float], ...]:
        """The certify, invert and CLI samples taken between two marks, in seconds.

        With a HostClock, call it after the clock's block has ended.
        """
        end = end or self.mark()
        scale = self.clock.scale if self.clock else _wall
        return tuple(scale(calls[a:b]) for calls, a, b
                     in zip((self.certify, self.invert, self.cli), start, end))

    def timed_s(self, start=(0, 0, 0), end=None) -> float:
        """Seconds spent in the timed calls between two marks; the loop's own bookkeeping is excluded."""
        return sum(map(sum, self.scaled(start, end)))

    def run_pass(self, cases, tracer=None, cli_rounds=0) -> dict:
        """Certify every case, invert every permutation, count the work.

        The cli_rounds rounds of golden commands are spread evenly between
        the certifications, so that they sample the same stretch of time.
        """
        counts = new_counts()
        repeats = self.workload.certify_repeats
        steps = len(cases) * repeats
        replays = len(GOLDEN_CLI) * cli_rounds
        due = [0] * (steps + 1)
        for j in range(1, replays + 1):
            due[-(-j * steps // replays)] += 1
        commands = itertools.cycle(GOLDEN_CLI)
        step = 0
        for case in cases:
            counts["specs"] += 1
            counts["perms"] += case.is_perm()
            for _ in range(repeats):
                self._guarded(case, self._certify, counts)
                step += 1
                for _ in range(due[step]):
                    call, ok = replay(next(commands), self.checks)
                    if ok:
                        self.cli.append(call)
            if case.is_perm():
                self._guarded(case, self._invert, counts, tracer)
        return counts

    def _guarded(self, case, step, *args) -> None:
        try:
            step(case, *args)
        except Exception as exc:  # one spec's crash must not end the run
            self.checks.record(False, f"{case.label()}: {type(exc).__name__}: {exc}")

    def _certify(self, case, counts) -> None:
        spec = self.specs[case]
        ctx = spec.ctx
        t0 = time.perf_counter()
        verdict = construct.check_criterion(spec)
        _, evaluator = construct.build_perm_poly(spec)
        bijective, witness = construct.is_permutation_bruteforce(ctx, evaluator)
        call = t0, time.perf_counter()
        counts["oracle_points"] += spans.oracle_points(ctx, witness)
        if self.checks.record(
                bijective == verdict.is_perm == case.is_perm(),
                f"{case.label()}: oracle says {bijective}, check_criterion "
                f"says {verdict.is_perm}, the gcd criterion says {case.is_perm()}"):
            self.certify.append(call)

    def _invert(self, case, counts, tracer) -> None:
        spec = self.specs[case]
        q2 = spec.ctx.q2
        routes = self.workload.routes
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        if self.split:
            report = {"routes": {}, "skipped": {}}
            for route in routes:
                mark = len(tracer.spans) if tracer else 0
                part = inverse.agreement_report(spec, routes=(route,))
                if tracer and route in part["routes"]:
                    spans.derive_digest(tracer, mark, route, q2)
                report["routes"].update(part["routes"])
                report["skipped"].update(part["skipped"])
            report["agree"] = len(set(report["routes"].values())) == 1
        else:
            report = inverse.agreement_report(spec, routes=routes)
        call = t0, time.perf_counter()

        problems = inversion_problems(case, report, routes)
        computed = report["routes"]
        counts["closed_refusals"] += "closed" in report["skipped"]
        counts["digest_points"] += q2 * len(computed)
        counts["table_inverse_points"] += q2 * ("table" in computed)
        if "cyclotomic" in computed:
            if tracer:
                terms = next(s["attrs"]["terms"] for s in reversed(tracer.spans[first:])
                             if s["stage"] == "inverse.inverse_cyclotomic")
            else:
                terms = len(_inverse_cyclotomic(spec).terms)
            counts["cyclotomic_inverses"] += 1
            counts["cyclotomic_terms"] += terms
            counts["cyclotomic_term_slots"] += spec.ctx.q + 1
            counts["poly_eval_points"] += q2
            counts["poly_eval_term_evals"] += q2 * terms
            if terms < self.workload.min_inverse_terms:
                problems.append(f"cyclotomic inverse has {terms} terms, "
                                f"fewer than {self.workload.min_inverse_terms}")
        if self.checks.record(not problems, f"{case.label()}: {'; '.join(problems)}"):
            counts["inverted"] += 1
            self.invert.append(call)


def _wall(calls) -> list[float]:
    return [t1 - t0 for t0, t1 in calls]


def replay(command, checks: Checks, tracer=None) -> tuple[tuple[float, float], bool]:
    """Run one golden CLI command as a subprocess: its (start, end), and whether it passed."""
    sub, argv, golden = command
    expected = (GOLDEN_DIR / golden).read_bytes()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "redeiperm.cli", *argv],
                          capture_output=True, cwd=ROOT, timeout=CLI_TIMEOUT_S)
    t1 = time.perf_counter()
    ok = checks.record(
        proc.returncode == 0 and proc.stdout == expected,
        f"redeiperm {' '.join(argv)}: exit {proc.returncode}, stdout "
        f"{'equals' if proc.stdout == expected else 'differs from'} {golden}")
    if tracer:
        tracer.add(f"cli.{sub}", round((t1 - t0) * 1e9), spec=" ".join(argv),
                   outcome="ok" if ok else "failed")
    return (t0, t1), ok


def trace_cli(checks: Checks, tracer) -> None:
    """Time importing the CLI module and one round of the golden commands."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                          cwd=ROOT, timeout=CLI_TIMEOUT_S)
    if checks.record(proc.returncode == 0, f"importing redeiperm.cli failed: "
                                           f"{proc.stderr.decode()[-200:]}"):
        tracer.add("cli.import", int(proc.stdout))
    for command in GOLDEN_CLI:
        replay(command, checks, tracer)


def setup(fields) -> tuple[dict, tuple[float, float]]:
    """Cold make_field for every field: the fields, and the call's (start, end)."""
    t0 = time.perf_counter()
    ctxs = {(p, k): field_tower.make_field(p, k) for p, k in fields}
    return ctxs, (t0, time.perf_counter())


def probe(workload) -> dict:
    with hostspeed.HostClock() as clock:
        _, call = setup(workload.fields)
    return {"setup_s": clock.scale([call])[0], "host_speed": clock.speed()}


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    cases = workload.generate(rng)
    checks = Checks()
    if trace:
        return traced(workload, seed, cases, checks)
    with hostspeed.HostClock() as clock:
        ctxs, setup_call = setup(workload.fields)
        specs = {c: PermSpec(c.variant, c.n, c.m, ctxs[(c.p, c.k)].alpha_from_l(c.l))
                 for c in cases}
        loop = Loop(workload, specs, checks, split=False, clock=clock)
        marks, fingerprints = [loop.mark()], []
        for _ in range(max(1, round(seconds / workload.pass_s))):
            counts = loop.run_pass(cases, cli_rounds=CLI_ROUNDS)
            marks.append(loop.mark())
            fingerprints.append(fingerprint(counts))
            if len(fingerprints) > 1:
                checks.record(fingerprints[-1] == fingerprints[0],
                              f"pass {len(fingerprints)} counted different work "
                              f"than pass 1")
            cases = rng.sample(cases, len(cases))
    certify, invert, cli = loop.scaled()
    return finish(
        checks, counts, ctxs, setup_s=clock.scale([setup_call])[0],
        host_speed=clock.speed(), certify=certify, invert=invert, cli=cli,
        raw_certify=clock.seconds(loop.certify), raw_invert=clock.seconds(loop.invert),
        raw_cli=clock.seconds(loop.cli),
        pass_work=[loop.timed_s(a, b) for a, b in zip(marks, marks[1:])])


def traced(workload, seed: int, cases, checks: Checks) -> dict:
    """One untraced and one traced pass: the per-layer metrics, in wall seconds."""
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        ctxs, setup_call = setup(workload.fields)
    finally:
        tracer.restore()
    specs = {c: PermSpec(c.variant, c.n, c.m, ctxs[(c.p, c.k)].alpha_from_l(c.l))
             for c in cases}
    # the same pass untraced and traced: the ratio of their timed calls
    # is the tracing overhead
    reference = Loop(workload, specs, checks, split=True)
    counts = reference.run_pass(cases)
    loop = Loop(workload, specs, checks, split=True)
    spans.install(tracer)
    try:
        traced_counts = loop.run_pass(cases, tracer)
    finally:
        tracer.restore()
    trace_cli(checks, tracer)
    checks.record(traced_counts == counts,
                  "the traced pass counted different work than the untraced one")
    pe = tracer.tallies["polyring.poly_eval"]
    checks.record(
        (pe["calls"], pe["units"]) == (counts["poly_eval_points"],
                                       counts["poly_eval_term_evals"]),
        f"poly_eval ran {pe['calls']} points / {pe['units']} term evaluations, "
        f"the cyclotomic inverses predict {counts['poly_eval_points']} / "
        f"{counts['poly_eval_term_evals']}")
    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_ratio"] = (loop.timed_s() / reference.timed_s(), "ratio")
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(path)
    return finish(checks, counts, ctxs, setup_s=setup_call[1] - setup_call[0],
                  layers=layers, spans_file=str(path.relative_to(ROOT)))


def finish(checks: Checks, counts: dict, ctxs: dict, **out) -> dict:
    """A run's result: what the caller measured, with the counts and checks."""
    return dict(
        out, counts=counts, fingerprint=fingerprint(counts),
        table_entries=sum(map(spans.table_entries, ctxs.values())),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=checks.attempted, failures=checks.failures)


def main(argv: list[str]) -> int:
    here = Path(redeiperm.__file__).resolve()
    if not here.is_relative_to(ROOT / "src"):
        print(f"error: imported redeiperm from {here}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    mode, workload = argv[0], WORKLOADS[argv[1]]
    if mode == "probe":
        result = probe(workload)
    else:
        result = run(workload, int(argv[2]), float(argv[3]), argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
