"""The redeiperm benchmark: certify, invert and field set-up on three workloads.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 12 --trace 0

Run from a checkout of the repository; the library is imported from its src/.
With --trace 0 the workload runs untraced in a fresh interpreter, for
round(--seconds / pass_s) passes (at least one; pass_s is set per workload in
workloads.py), then one or two more fresh interpreters time the cold set-up
alone, and every end-to-end metric is printed.  Times are seconds at the nominal host speed of
hostspeed.py; the raw medians and the host's speed are printed beside them.
With --trace 1 one untraced and one traced pass over the
same specs give the per-layer metrics and the tracing overhead, and the spans
are written to .bench_out/.  Each metric is printed with its unit; the last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The exit status is 1 when any correctness check failed and 2 when
the checkout cannot be benchmarked.  See bench/README.md for the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GOLDEN_CLI, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
TIME_LIMIT_S = 170.0   # a run must end within three minutes
# Cold set-ups per run, the worker's own included: three, or two when one
# takes longer than LONG_SETUP_S, which keeps field-large inside its budget.
SETUP_RUNS = 3
LONG_SETUP_S = 10.0


class BenchError(Exception):
    """The checkout cannot be benchmarked."""


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the (n-10)-th smallest sample.  Below 20 samples it would fall
    under the median, so the median is reported instead.
    """
    n = len(samples)
    if n < 20:
        return statistics.median(samples), f"p50, n={n}: fewer than 20 samples"
    rank = n - 10
    return sorted(samples)[rank - 1], f"p{100 * rank / n:.2f}, n={n}, 10 beyond"


def machine() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except OSError:
            pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], capture_output=True,
                          text=True, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(result: dict, probes: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics (name -> (value, unit)) and a note for each."""
    setups = [result["setup_s"], *(p["setup_s"] for p in probes)]
    certify, invert, cli = result["certify"], result["invert"], result["cli"]
    if not (certify and invert and cli):
        raise BenchError("no passing sample for a latency metric: "
                         + "; ".join(result["failures"][:5]))
    certify_tail, certify_note = tail(certify)
    invert_tail, invert_note = tail(invert)
    pass_s = statistics.median(result["pass_work"])

    def raw(key):
        return f"raw median {statistics.median(result['raw_' + key]):.6g} s"

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "certify_per_s": (len(certify) / sum(certify), "specs/s"),
        "certify_p50_s": (statistics.median(certify), "s"),
        "certify_tail_s": (certify_tail, "s"),
        "invert_p50_s": (statistics.median(invert), "s"),
        "invert_tail_s": (invert_tail, "s"),
        "cli_p50_s": (statistics.median(cli), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "wall_s": (result["setup_s"] + pass_s, "s"),
    }
    notes = {
        "setup_s": "median of cold set-ups " + ", ".join(f"{s:.4f}" for s in setups)
                   + "; host speed " + ", ".join(
                       f"{x:.3f}" for x in (result["host_speed"], *(p["host_speed"] for p in probes))),
        "certify_per_s": f"{len(certify)} confirmed verdicts / summed certify time",
        "certify_p50_s": f"n={len(certify)}, {raw('certify')}",
        "certify_tail_s": certify_note,
        "invert_p50_s": f"n={len(invert)}, {raw('invert')}",
        "invert_tail_s": invert_note,
        "cli_p50_s": f"n={len(cli)} golden commands, {raw('cli')}",
        "peak_rss_mb": "workload process",
        "wall_s": f"set-up + median pass ({pass_s:.3f} s of timed calls, "
                  f"{len(result['pass_work'])} passes)",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "redeiperm" / "__init__.py"]
        needed += [ROOT / "tests" / "data" / "v1" / g for _, _, g in GOLDEN_CLI]
        missing = [p for p in needed if not p.is_file()]
        if missing:
            raise BenchError(f"not a redeiperm checkout: missing {missing[0]}")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        result = run_worker(["run", args.workload, str(args.seed), str(args.seconds),
                             str(args.trace)], env, deadline)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            # BENCHMARK.json lists the layer metrics every workload exercises;
            # the others are printed only
            metrics = {k: tuple(v) for k, v in result["layers"].items()}
            notes = {k: "derived: agreement_report - build_perm_poly - constructor"
                     for k in metrics if k.startswith("inverse.digest.")}
            wanted = [m["name"] for m in declared["per_layer"]]
        else:
            setup_runs = SETUP_RUNS - (result["setup_s"] > LONG_SETUP_S)
            probes = [run_worker(["probe", args.workload], env, deadline)
                      for _ in range(setup_runs - 1)]
            metrics, notes = end_to_end(result, probes)
            wanted = [m["name"] for m in declared["end_to_end"]]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = len(result["failures"])
    attempted = result["attempted"]
    counts = result["counts"]
    info = machine()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          + "  ".join(f"{k} {v}" for k, v in info.items())
          + (f"  host speed {result['host_speed']:.4f} of nominal"
             if "host_speed" in result else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit:<8} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} {'ratio':<8} "
          f"{failed} failed of {attempted} checks")
    for what in result["failures"][:20]:
        print(f"  FAILED: {what}")
    print("  counts " + json.dumps(counts, sort_keys=True))
    print(f"  table entries {result['table_entries']}  counts sha256 {result['fingerprint']}")
    print(f"  permutation share {counts['perms'] / counts['specs']:.4f}  "
          f"closed-route refusal share {counts['closed_refusals'] / max(1, counts['perms']):.4f}  "
          f"inverse terms / (q+1) "
          f"{counts['cyclotomic_terms'] / max(1, counts['cyclotomic_term_slots']):.4f}")
    if args.trace:
        print(f"  spans written to {result['spans_file']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
