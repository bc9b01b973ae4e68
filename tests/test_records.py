"""The frozen records keep the contracts they had as dataclasses.

PermSpec, Condition and PermVerdict (construct), BezoutData and MuInverse
(inverse), RedeiPair (redei) and RunConfig (cli) are NamedTuples: they
refuse assignment, equal records hash equal, and every repr and to_record
dict is pinned as it was.  PermSpec still validates, also through _replace.
Importing the CLI loads neither dataclasses (with inspect) nor hashlib.
"""

import os
import re
import subprocess
import sys

import pytest

from redeiperm import PermSpec, bezout, check_criterion, gh_coeffs, mu_inverse
from redeiperm.cli import RunConfig

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _records(ctx):
    """One record of each type, over F_81: G_5, alpha = zeta^2."""
    spec = PermSpec("G", 5, 0, ctx.alpha_from_l(2))
    verdict = check_criterion(spec)
    return {"spec": spec, "verdict": verdict,
            "condition": verdict.conditions[0], "bezout": bezout(spec),
            "mu_inverse": mu_inverse(spec),
            "pair": gh_coeffs(3, ctx.alpha_from_l(1)),
            "config": RunConfig("json", "-")}


def test_records_refuse_assignment(q9):
    for name, rec in _records(q9).items():
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1  # no __dict__ either
        assert not hasattr(rec, "__dict__"), name


def test_equal_records_are_equal_and_hash_equal(q9):
    first, again = _records(q9), _records(q9)
    for name in first:
        assert first[name] == again[name], name
        if name != "pair":  # Poly defines __eq__ only, so a pair never hashed
            assert hash(first[name]) == hash(again[name]), name
    # a record also equals the plain tuple of its fields
    assert first["condition"] == tuple(first["condition"])


def test_permspec_refuses_bad_input_also_through_replace(q9):
    spec = PermSpec("H", 3, 0, q9.alpha_from_l(2))
    for change, message in [({"variant": "X"}, "variant must be 'H' or 'G'"),
                            ({"n": 0}, "n must be a positive integer"),
                            ({"alpha": q9.gamma}, "alpha must lie in mu_{q+1}")]:
        fields = {**spec._asdict(), **change}
        with pytest.raises(ValueError, match=re.escape(message)):
            PermSpec(**fields)
        with pytest.raises(ValueError, match=re.escape(message)):
            spec._replace(**change)
    assert spec._replace(n=5) == PermSpec("H", 5, 0, spec.alpha)
    assert type(spec._replace(n=5)) is PermSpec


def test_reprs_are_unchanged(q9):
    recs = _records(q9)
    assert {name: repr(rec) for name, rec in recs.items()} == {
        "spec": "PermSpec(variant='G', n=5, m=0, alpha=Felt(2, 0, 2, 1))",
        "verdict": "PermVerdict(is_perm=True, case='sqrt_in_mu', conditions="
                   "(Condition(name='gcd(n(n+2m), q-1)', value=1, "
                   "passed=True),))",
        "condition": "Condition(name='gcd(n(n+2m), q-1)', value=1, passed=True)",
        "bezout": "BezoutData(r=5, r_prime=5, t=-3, n1=13, n2=None, "
                  "r_prime_full=None)",
        "mu_inverse": "MuInverse(case='I3', n=5, n_inv=13, alpha=Felt(2, 0, 2, 1), "
                      "sqrt_alpha=Felt(0, 1, 1, 2))",
        "pair": "RedeiPair(n=3, alpha=Felt(0, 2, 2, 1), g=Poly(x^3), "
                "h=Poly((0,2,2,1)))",
        "config": "RunConfig(fmt='json', out='-')",
    }


def test_records_are_unchanged(q9):
    recs = _records(q9)
    assert recs["spec"].to_record() == {"variant": "G", "n": 5, "m": 0,
                                        "alpha": [2, 0, 2, 1]}
    condition = {"name": "gcd(n(n+2m), q-1)", "gcd": 1, "passed": True}
    assert recs["condition"].to_record() == condition
    assert recs["verdict"].to_record() == {"is_perm": True, "case": "sqrt_in_mu",
                                           "conditions": [condition]}
    record = recs["bezout"].to_record()
    assert type(record) is dict
    assert record == {"r": 5, "r_prime": 5, "t": -3, "n1": 13, "n2": None,
                      "r_prime_full": None}


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    code = ("import sys\nbefore = set(sys.modules)\nimport redeiperm.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'hashlib', '_hashlib'}"
            " & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=30, check=False)
    assert proc.stdout == "[]\n", proc.stderr
