"""Span recorder for the traced benchmark run, and its per-layer metrics.

The library is instrumented from outside: every module attribute bound to an
instrumented function is swapped for a wrapper, so the calls the benchmark
makes and the calls one library module makes into another through its module
globals are both recorded.  restore() puts the original functions back.

Spans are kept in memory and written out as JSON lines at the end, one object
per span with the keys id, parent, stage, field, spec, start_ns, wall_ns,
points, outcome and attrs.  A hot leaf function (poly_eval, called once per
point) is tallied instead: one summary object with its call count, total
wall_ns and work units.
"""

from __future__ import annotations

import json
import resource
import time

from redeiperm import construct, field_tower, inverse, polyring, redei

MODULES = (field_tower, polyring, redei, construct, inverse)

# inverse route -> the stage of the constructor agreement_report calls for it
ROUTE_CONSTRUCTORS = {
    "cyclotomic": "inverse.inverse_cyclotomic",
    "closed": "inverse.lift_inverse",
    "table": "inverse.inverse_table",
}


def _field(ctx) -> str:
    return f"q={ctx.q}"


def _spec(spec) -> str:
    return f"q={spec.ctx.q} {spec.variant} n={spec.n} m={spec.m} alpha={spec.alpha.val}"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.tallies: dict[str, dict] = {}
        self._stack: list[dict] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, stage: str) -> dict:
        rec = {"id": self._next_id,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "stage": stage, "field": None, "spec": None,
               "start_ns": 0, "wall_ns": 0, "points": None,
               "outcome": "ok", "attrs": {}}
        self._next_id += 1
        self._stack.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        return rec

    def _close(self, rec: dict) -> None:
        rec["wall_ns"] = time.perf_counter_ns() - rec["start_ns"]
        self._stack.pop()
        self.spans.append(rec)

    def add(self, stage: str, wall_ns: int, parent=None, **fields) -> dict:
        """Record a span whose duration was measured elsewhere."""
        rec = {"id": self._next_id, "parent": parent, "stage": stage,
               "field": None, "spec": None, "start_ns": None,
               "wall_ns": wall_ns, "points": None, "outcome": "ok",
               "attrs": {}}
        rec.update(fields)
        self._next_id += 1
        self.spans.append(rec)
        return rec

    # -- instrumentation ------------------------------------------------------

    def _patch(self, fn, wrapper) -> None:
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, name, fn))
                    setattr(mod, name, wrapper)

    def instrument(self, stage: str, fn, describe=None, before=None) -> None:
        """Record a span for every call of fn.

        before(args) runs ahead of the timed region and its result is handed
        to describe(rec, args, result, state), which fills in field, spec,
        points and attrs after it; result is None when the call raised.
        """
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            rec = self._open(stage)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(rec)
                rec["outcome"] = f"{type(exc).__name__}: {exc}"
                if describe:
                    describe(rec, args, None, state)
                raise
            self._close(rec)
            if describe:
                describe(rec, args, result, state)
            return result
        self._patch(fn, wrapper)

    def tally(self, stage: str, fn, units) -> None:
        """Count calls, wall time and units(args) of a hot leaf function."""
        t = self.tallies.setdefault(stage, {"calls": 0, "wall_ns": 0, "units": 0})
        clock = time.perf_counter_ns

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            t["wall_ns"] += clock() - t0
            t["calls"] += 1
            t["units"] += units(args)
            return result
        self._patch(fn, wrapper)

    def restore(self) -> None:
        for mod, name, fn in reversed(self._patches):
            setattr(mod, name, fn)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            for stage, t in sorted(self.tallies.items()):
                fh.write(json.dumps({"stage": stage, "tally": True, **t},
                                    sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# What each instrumented function records.
# ---------------------------------------------------------------------------

def table_entries(ctx) -> int:
    """Entries of a field's exp, log and Zech tables."""
    return len(ctx._exp) + len(ctx._log) + len(ctx._zech)


def _make_field_before(args):
    p, k = args[0], args[1]
    cached = (p, k) in field_tower._FIELD_CACHE
    return cached, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _make_field_describe(rec, args, ctx, state):
    cached, rss_kb = state
    rec["field"] = f"q={args[0] ** args[1]}"
    if cached:
        rec["outcome"] = "cached"
    elif ctx is not None:
        rec["attrs"]["entries"] = table_entries(ctx)
        rec["attrs"]["rss_kb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_kb)


def _spec_describe(rec, args, result, state):
    rec["spec"] = _spec(args[0])
    rec["field"] = _field(args[0].ctx)


def _gh_describe(rec, args, pair, state):
    rec["field"] = _field(args[1].ctx)
    rec["spec"] = f"n={args[0]} alpha={args[1].val}"
    if pair is not None:
        rec["attrs"]["terms"] = len(pair.g.terms) + len(pair.h.terms)


def oracle_points(ctx, witness) -> int:
    """Points is_permutation_bruteforce evaluated, from its collision witness.

    The oracle scans the packed values 0, 1, ... in order and stops at the
    first collision, whose second point is the last one it evaluated.
    """
    return ctx.q2 if witness is None else witness[1].val + 1


def _oracle_describe(rec, args, result, state):
    ctx = args[0]
    rec["field"] = _field(ctx)
    if result is not None:
        bijective, witness = result
        rec["points"] = oracle_points(ctx, witness)
        rec["outcome"] = "bijective" if bijective else "collision"
    rec["attrs"]["q2"] = ctx.q2


def _cyclotomic_describe(rec, args, poly, state):
    _spec_describe(rec, args, poly, state)
    if poly is not None:
        rec["attrs"]["terms"] = len(poly.terms)


def _table_describe(rec, args, result, state):
    rec["field"] = _field(args[0])
    if result is not None:
        rec["points"] = args[0].q2


def install(tracer: Tracer) -> None:
    """Instrument the public functions of every library layer."""
    tracer.instrument("field_tower.make_field", field_tower.make_field,
                      _make_field_describe, _make_field_before)
    tracer.instrument("redei.gh_coeffs", redei.gh_coeffs, _gh_describe)
    for name in ("check_criterion", "build_perm_poly", "coset_factor_table"):
        tracer.instrument(f"construct.{name}", getattr(construct, name),
                          _spec_describe)
    tracer.instrument("construct.oracle", construct.is_permutation_bruteforce,
                      _oracle_describe)
    tracer.tally("polyring.poly_eval", polyring.poly_eval,
                 lambda args: len(args[0].terms))
    tracer.instrument("inverse.inverse_cyclotomic", inverse.inverse_cyclotomic,
                      _cyclotomic_describe)
    tracer.instrument("inverse.lift_inverse", inverse.lift_inverse,
                      _spec_describe)
    tracer.instrument("inverse.inverse_table", inverse.inverse_table,
                      _table_describe)
    tracer.instrument("inverse.agreement_report", inverse.agreement_report,
                      _spec_describe)


def derive_digest(tracer: Tracer, first: int, route: str, q2: int) -> None:
    """Add the derived digest span of the one-route agreement_report just recorded.

    first is len(tracer.spans) before the call.  The digest time is the
    report's wall time minus its build_perm_poly and route-constructor
    child spans.
    """
    ar = tracer.spans[-1]
    if ar["stage"] != "inverse.agreement_report":
        raise RuntimeError(f"expected an agreement_report span, got {ar['stage']}")
    stages = ("construct.build_perm_poly", ROUTE_CONSTRUCTORS[route])
    children = sum(s["wall_ns"] for s in tracer.spans[first:]
                   if s["parent"] == ar["id"] and s["stage"] in stages)
    tracer.add(f"inverse.digest.{route}", ar["wall_ns"] - children,
               parent=ar["id"], field=ar["field"], spec=ar["spec"], points=q2,
               attrs={"derived": "agreement_report(routes=(r,)) - "
                                 "build_perm_poly - route constructor"})


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: name -> (value, unit).

    busy_s is the total wall time inside a layer's calls, children included.
    """
    by_stage: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_stage.setdefault(s["stage"], []).append(s)

    def busy(stage):
        return sum(s["wall_ns"] for s in by_stage.get(stage, ())) / 1e9

    def calls(stage):
        return len(by_stage.get(stage, ()))

    def attr(stage, key):
        return sum(s["attrs"].get(key, 0) for s in by_stage.get(stage, ()))

    def points(stage):
        return sum(s["points"] or 0 for s in by_stage.get(stage, ()))

    out: dict[str, tuple[float, str]] = {}
    built = [s for s in by_stage.get("field_tower.make_field", ())
             if s["outcome"] != "cached"]
    built_s = sum(s["wall_ns"] for s in built) / 1e9
    entries = sum(s["attrs"].get("entries", 0) for s in built)
    out["field_tower.make_field.busy_s"] = (busy("field_tower.make_field"), "s")
    out["field_tower.make_field.entries"] = (entries, "count")
    out["field_tower.make_field.entries_per_s"] = (_ratio(entries, built_s), "1/s")
    out["field_tower.make_field.rss_mb"] = (
        sum(s["attrs"].get("rss_kb", 0) for s in built) / 1024, "MB")

    out["redei.gh_coeffs.busy_s"] = (busy("redei.gh_coeffs"), "s")
    out["redei.gh_coeffs.calls"] = (calls("redei.gh_coeffs"), "count")
    out["redei.gh_coeffs.terms"] = (attr("redei.gh_coeffs", "terms"), "count")

    for name in ("check_criterion", "build_perm_poly"):
        out[f"construct.{name}.busy_s"] = (busy(f"construct.{name}"), "s")
        out[f"construct.{name}.calls"] = (calls(f"construct.{name}"), "count")
    out["construct.coset_factor_table.busy_s"] = (
        busy("construct.coset_factor_table"), "s")

    oracle_s, oracle_points = busy("construct.oracle"), points("construct.oracle")
    out["construct.oracle.busy_s"] = (oracle_s, "s")
    out["construct.oracle.points"] = (oracle_points, "count")
    out["construct.oracle.points_per_s"] = (_ratio(oracle_points, oracle_s), "1/s")
    out["construct.oracle.scan_ratio"] = (
        _ratio(oracle_points, attr("construct.oracle", "q2")), "ratio")

    pe = tracer.tallies.get("polyring.poly_eval",
                            {"calls": 0, "wall_ns": 0, "units": 0})
    out["polyring.poly_eval.busy_s"] = (pe["wall_ns"] / 1e9, "s")
    out["polyring.poly_eval.points"] = (pe["calls"], "count")
    out["polyring.poly_eval.term_evals"] = (pe["units"], "count")
    out["polyring.poly_eval.ns_per_term_eval"] = (
        _ratio(pe["wall_ns"], pe["units"]), "ns")

    out["inverse.inverse_cyclotomic.busy_s"] = (busy("inverse.inverse_cyclotomic"), "s")
    out["inverse.inverse_cyclotomic.terms"] = (
        attr("inverse.inverse_cyclotomic", "terms"), "count")
    lifts = by_stage.get("inverse.lift_inverse", ())
    out["inverse.lift_inverse.busy_s"] = (busy("inverse.lift_inverse"), "s")
    out["inverse.lift_inverse.refusal_ratio"] = (
        _ratio(sum(s["outcome"] != "ok" for s in lifts), len(lifts)), "ratio")
    out["inverse.inverse_table.busy_s"] = (busy("inverse.inverse_table"), "s")
    for route in ROUTE_CONSTRUCTORS:
        out[f"inverse.digest.{route}.busy_s"] = (busy(f"inverse.digest.{route}"), "s")
    out["inverse.agreement_report.busy_s"] = (busy("inverse.agreement_report"), "s")

    for stage in ("cli.import", "cli.construct", "cli.invert", "cli.count"):
        out[f"{stage}.busy_s"] = (busy(stage), "s")
    return out
