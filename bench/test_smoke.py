"""Smoke test of the benchmark harness on the tiny workload (q <= 9).

    python3 -m pytest bench
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
from redeiperm import PermSpec, agreement_report, make_field  # noqa: E402
from worker import Checks, inversion_problems  # noqa: E402
from workloads import ALL_ROUTES, Case  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", "tiny",
                           "--seconds", "1", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = _run("--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
    if trace == "1":  # printed, though not exercised by every workload
        for name in ("polyring.poly_eval.ns_per_term_eval",
                     "inverse.inverse_cyclotomic.terms",
                     "inverse.digest.cyclotomic.busy_s"):
            assert name in proc.stdout


def test_counts_repeat_for_one_seed():
    def fingerprint():
        proc = _run("--seed", "5", "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        return next(line.split()[-1] for line in proc.stdout.splitlines()
                    if "counts sha256" in line)
    assert fingerprint() == fingerprint()


def test_wrong_expected_digest_is_a_failure():
    case = Case(3, 1, "H", 1, 0, 0)
    report = agreement_report(PermSpec("H", 1, 0, make_field(3, 1).alpha_from_l(0)))
    checks = Checks()
    checks.record(not inversion_problems(case, report, ALL_ROUTES), "right digest")
    checks.record(not inversion_problems(case, report, ALL_ROUTES, "0" * 64),
                  "wrong digest")
    assert checks.failures == ["wrong digest"]
    assert len(checks.failures) / checks.attempted == 0.5


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_takes_calibration_out_of_a_call():
    with hostspeed.HostClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        call = t0, time.perf_counter()
    first, end = clock._inside(*call)
    assert end - first >= 10  # the timer ran units during the call
    inside = clock.seconds([call])[0]
    assert inside == pytest.approx(call[1] - call[0] - sum(clock.units[first:end]))
    near = clock.units[first - hostspeed.NEIGHBOURS:end + hostspeed.NEIGHBOURS]
    assert clock.scale([call])[0] == pytest.approx(
        inside * hostspeed.NOMINAL_S / statistics.median(near))
