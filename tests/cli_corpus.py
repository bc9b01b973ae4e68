"""The CLI byte corpus: a frozen list of argv, each stored with the exit code
and the sha256 of the stdout and stderr bytes it produced.

    python3 tests/cli_corpus.py generate          # write the manifest
    python3 tests/cli_corpus.py replay

generate runs every argv of corpus_argv() and writes tests/data/v1/
cli_corpus.json with the commit it ran at; it refuses to run when src/ has
uncommitted changes, so that commit names the code that made the bytes.
replay runs every stored argv, prints each entry whose exit code or bytes
differ, and exits 1 if any does.

Each argv runs in process through redeiperm.cli.main with COLUMNS=80.  An
argparse SystemExit counts as an exit code.  argparse's list of choices is
normalised to the quoted form, since later Python releases print the
choices by str() instead of repr().  Stdlib only; every field has
q^2 <= 6561, so the whole corpus replays in a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "data", "v1", "cli_corpus.json")
sys.path.insert(0, os.path.join(ROOT, "src"))

from redeiperm import cli  # noqa: E402

# (p, k) with q^2 <= 6561: q = 3, 5, 7, 9, 11, 13, 25, 49, 81
FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (7, 2),
          (3, 4))
ROUTES = ("cyclotomic", "closed", "table", "all")
FORMATS = ("text", "json")


def _field(p: int, k: int) -> list[str]:
    return ["--p", str(p), "--k", str(k)]


def _spec(variant: str, n: int, m: int, l: int) -> list[str]:
    return ["--variant", variant, "--n", str(n), "--m", str(m), "--l", str(l)]


def corpus_argv() -> list[list[str]]:
    """Every argv of the corpus, in a fixed order; the format alternates."""
    runs: list[list[str]] = []
    fmt = lambda: ["--format", FORMATS[len(runs) % 2]]
    # construct over every field and variant, permutations or not
    for p, k in FIELDS:
        for variant in ("H", "G"):
            for n, m, l in ((1, 0, 0), (3, 0, 1), (5, -1, 2), (7, 1, 3)):
                runs.append(["construct", *_field(p, k),
                             *_spec(variant, n, m, l), *fmt()])
    for p, k in FIELDS[:5]:
        runs.append(["construct", *_field(p, k), *_spec("H", 3, 0, 2),
                     "--skip-oracle", *fmt()])
    for extra in (["--n", "0"], ["--n", "-3"], ["--n", "2"], ["--l", "25"],
                  ["--l", "-1"], ["--m", "-7"], ["--n", "3", "--m", "40"]):
        runs.append(["construct", "--p", "11", "--variant", "G", "--n", "3",
                     *extra, *fmt()])
    # invert by every route over every field: permutations, refusals of
    # non-permutations and the closed route's gcd refusal
    for p, k in FIELDS:
        for variant in ("H", "G"):
            for n, m, l in ((3, 0, 1), (5, 1, 0), (7, 0, 2)):
                for route in ROUTES:
                    runs.append(["invert", *_field(p, k),
                                 *_spec(variant, n, m, l), "--route", route,
                                 *fmt()])
    for route in ROUTES:
        for fmt_name in FORMATS:
            runs.append(["invert", "--p", "3", "--k", "2", "--variant", "G",
                         "--n", "5", "--route", route, "--format", fmt_name])
            runs.append(["invert", "--p", "7", "--variant", "H", "--n", "3",
                         "--route", route, "--format", fmt_name])
    runs.append(["invert", "--p", "11", "--variant", "H", "--n", "3"])
    # count
    for p, k, k_max, m in ((3, 1, 5, 0), (3, 2, 6, 1), (5, 1, 3, 0),
                           (5, 2, None, -1), (7, 1, 4, 2), (11, 1, 3, 0),
                           (13, 1, 2, 5), (3, 8, 9, 0), (17, 1, None, 0),
                           (3, 1, 1, 0)):
        extra = [] if k_max is None else ["--k-max", str(k_max)]
        runs.append(["count", *_field(p, k), "--m", str(m), *extra, *fmt()])
    # rejected input (exit 2): the size bound, a bad p or k, an unwritable --out
    for cmd in ("construct", "invert"):
        base = [cmd, "--variant", "H", "--n", "3"]
        for bad in (["--p", "11", "--size-bound", "100"],
                    ["--p", "3", "--k", "9"],
                    ["--p", "4"], ["--p", "2"], ["--p", "1"], ["--p", "0"],
                    ["--p", "-3"], ["--p", "9"],
                    ["--p", "3", "--k", "0"], ["--p", "3", "--k", "-1"],
                    ["--p", "11", "--out", os.devnull + "/x"],
                    ["--p", "11", "--out", "/"]):
            runs.append([*base, *bad, *fmt()])
    for bad in (["--p", "3", "--k", "30"], ["--p", "3", "--size-bound", "1"],
                ["--p", "4"], ["--p", "2"], ["--p", "3", "--k", "0"],
                ["--p", "3", "--k", "3", "--k-max", "2"],
                ["--p", "3", "--k-max", "100000000000000000000000"],
                ["--p", "3", "--out", os.devnull + "/x"]):
        runs.append(["count", *bad, *fmt()])
    # argparse errors and help (SystemExit)
    runs += [
        [], ["-h"], ["bogus"], ["construct", "-h"], ["invert", "-h"],
        ["count", "-h"], ["selftest", "-h"],
        ["construct", "--p", "11", "--n", "3"],
        ["construct", "--p", "11", "--variant", "H"],
        ["construct", "--variant", "H", "--n", "3"],
        ["construct", "--p", "x", "--variant", "H", "--n", "3"],
        ["construct", "--p", "11", "--variant", "K", "--n", "3"],
        ["construct", "--p", "11", "--variant", "H", "--n", "3.5"],
        ["construct", "--p", "11", "--variant", "H", "--n"],
        ["construct", "--p", "11", "--variant", "H", "--n", "3", "--route", "all"],
        ["invert", "--p", "11", "--variant", "H", "--n", "3", "--route", "bogus"],
        ["invert", "--p", "11", "--variant", "H", "--n", "3", "--route"],
        ["invert", "--p", "11", "--variant", "H", "--n", "3", "--format", "xml"],
        ["invert", "--p", "11", "--variant", "H", "--n", "3", "--skip-oracle"],
        ["invert", "--p", "11", "--variant", "H", "--n", "3", "--l", "1e3"],
        ["count"], ["count", "--p", "3", "--k-max", "x"],
        ["count", "--p", "3", "--variant", "H"],
        ["selftest", "--size-bound", "50"], ["selftest", "--level", "slow"],
        ["selftest", "--seed", "x"],
    ]
    # the selftest's text output carries timings; its JSON does not
    runs.append(["selftest", "--level", "quick", "--format", "json"])
    return runs


_CHOICES = re.compile(r"\(choose from ([^)]*)\)")


def _normalise(err: str) -> str:
    return _CHOICES.sub(lambda m: "(choose from %s)" % ", ".join(
        repr(c.strip("'")) for c in m.group(1).split(", ")), err)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> dict:
    """One argv through cli.main: its exit code and the sha256 of its
    stdout and of its (normalised) stderr."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": list(argv), "exit": code,
            "stdout_sha256": _sha256(out.getvalue()),
            "stderr_sha256": _sha256(_normalise(err.getvalue()))}


def load() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def generate() -> int:
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()

    if git("status", "--porcelain", "--", "src"):
        print("src/ has uncommitted changes; commit them first", file=sys.stderr)
        return 1
    entries = [run(argv) for argv in corpus_argv()]
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write('{"commit": %s,\n "entries": [\n' % json.dumps(git("rev-parse", "HEAD")))
        fh.write(",\n".join("  " + json.dumps(e, sort_keys=True) for e in entries))
        fh.write("\n]}\n")
    print(f"{len(entries)} entries written to {MANIFEST}")
    return 0


def replay() -> int:
    entries = load()["entries"]
    bad = [(e, got) for e in entries if (got := run(e["argv"])) != e]
    for e, got in bad:
        print(f"MISMATCH {' '.join(e['argv'])}: exit {e['exit']} -> {got['exit']}, "
              f"stdout {'same' if got['stdout_sha256'] == e['stdout_sha256'] else 'differs'}, "
              f"stderr {'same' if got['stderr_sha256'] == e['stderr_sha256'] else 'differs'}")
    print(f"{len(entries) - len(bad)} of {len(entries)} entries replay byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="generate or replay the CLI byte corpus")
    parser.add_argument("action", choices=("generate", "replay"))
    args = parser.parse_args()
    sys.exit(generate() if args.action == "generate" else replay())
