"""The benchmark's workloads: fields, seeded spec lists, inverse routes, CLI commands.

A workload is a fixed candidate grid.  The seed picks the sample (which alpha
of each parity, which specs of each category) and the order; the library only
ever sees the generated specs.  Everything here is plain integer arithmetic,
so a spec's expected verdict and its expected closed-route refusal are known
without asking the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

ALL_ROUTES = ("cyclotomic", "closed", "table")


@dataclass(frozen=True)
class Case:
    """One spec as plain integers: alpha = zeta^l in F_{q^2}, q = p^k."""
    p: int
    k: int
    variant: str
    n: int
    m: int
    l: int

    @property
    def q(self) -> int:
        return self.p ** self.k

    def is_perm(self) -> bool:
        """The paper's gcd criterion.

        A square root of zeta^l lies in mu_{q+1} exactly when l is even,
        which selects the case.
        """
        q, n, m = self.q, self.n, self.m
        if self.l % 2 == 0:
            return math.gcd(n * (n + 2 * m), q - 1) == 1
        return math.gcd(n + 2 * m, q - 1) == 1 and math.gcd(n, q + 1) == 1

    def refusal_gcd(self) -> int:
        """gcd(n, q+1) when the closed route must refuse this permutation, else 1.

        The lift needs gcd(n + m(q+1), q^2-1) = 1.  For a permutation only
        gcd(n, q+1) can break that, and only when l is even.
        """
        return 1 if self.l % 2 else math.gcd(self.n, self.q + 1)

    def label(self) -> str:
        return f"q={self.q} {self.variant} n={self.n} m={self.m} l={self.l}"


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[tuple[int, int], ...]
    routes: tuple[str, ...]
    generate: Callable[[random.Random], list[Case]]
    # About the seconds of timed calls in one pass at the nominal host speed.
    # A run makes round(--seconds / pass_s) passes, at least one, so every
    # run of a workload takes the same samples.
    pass_s: float
    min_inverse_terms: int = 0
    certify_repeats: int = 1  # timed certifications of each spec per pass


def _grid(p: int, k: int, ls: tuple[int, ...], n_max: int, m_max: int) -> list[Case]:
    return [Case(p, k, variant, n, m, l)
            for l in ls for variant in "HG"
            for n in range(1, n_max + 1) for m in range(m_max + 1)]


def _sweep(fields, n_max: int, m_max: int) -> Callable[[random.Random], list[Case]]:
    def generate(rng: random.Random) -> list[Case]:
        cases = []
        for p, k in fields:
            # one alpha of each parity; the parity alone decides the verdicts
            ls = (rng.choice((0, 2, 4, 6)), rng.choice((1, 3, 5, 7)))
            cases += _grid(p, k, ls, n_max, m_max)
        rng.shuffle(cases)
        return cases
    return generate


# (n, m, parity of l) with a cyclotomic inverse of 82-84 of the 244 possible
# terms at q = 243, for both variants and every l of that parity.  The narrow
# band keeps the per-spec cost of the O(q^3) digest the same for every seed.
_DENSE_243 = ((15, 1, 1), (11, 1, 1), (15, 1, 0), (13, 1, 0), (15, 2, 0))


def _invert_dense(rng: random.Random) -> list[Case]:
    pool = [(variant, n, m, parity) for n, m, parity in _DENSE_243
            for variant in "HG"]
    return [Case(3, 5, variant, n, m, parity + 2 * rng.randrange(4))
            for variant, n, m, parity in rng.sample(pool, 4)]


_SWEEP_FIELDS = ((5, 2), (3, 3), (7, 2), (3, 4))
_LARGE_FIELDS = ((1021, 1), (3, 6))
# Closed-route permutations per field.  A scan of F_{1021^2} takes about twice
# one of F_{729^2}, so the samples fall in two clusters; with more specs on
# F_{729^2} the medians lie inside its cluster instead of on the gap between
# the two, where the seed's choice of specs would move them.
_LARGE_CLOSED = {(1021, 1): 1, (3, 6): 3}
_TINY_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2))


def _field_large(rng: random.Random) -> list[Case]:
    cases = []
    for p, k in _LARGE_FIELDS:
        grid = _grid(p, k, tuple(range(8)), 15, 2)
        closed = [c for c in grid if c.is_perm() and c.refusal_gcd() == 1]
        refused = [c for c in grid if c.is_perm() and c.refusal_gcd() != 1]
        others = [c for c in grid if not c.is_perm()]
        cases += (rng.sample(closed, _LARGE_CLOSED[(p, k)])
                  + [rng.choice(refused), rng.choice(others)])
    rng.shuffle(cases)
    return cases


WORKLOADS = {w.name: w for w in (
    # the acceptance-grid shape: many cheap specs, so the fixed cost of each
    # call dominates
    Workload("sweep-small", _SWEEP_FIELDS, ALL_ROUTES, _sweep(_SWEEP_FIELDS, 15, 2), 11.0),
    # isolates the O(q^3) cyclotomic digest
    # Each spec is certified 15 times: the inverts take seconds each, and the
    # certify and CLI samples between them must cover enough of the run.
    Workload("invert-dense", ((3, 5),), ALL_ROUTES, _invert_dense, 33.0,
             min_inverse_terms=60, certify_repeats=15),
    # field tables and the packed O(q^2) loops; the cyclotomic route is not run
    Workload("field-large", _LARGE_FIELDS, ("closed", "table"), _field_large, 19.0),
    # q <= 9, for the harness's own smoke test; not listed in BENCHMARK.json
    Workload("tiny", _TINY_FIELDS, ALL_ROUTES, _sweep(_TINY_FIELDS, 5, 1), 0.5),
)}


# The golden commands of tests/test_cli.py: (subcommand, argv, golden file).
GOLDEN_CLI = (
    ("construct", ["construct", "--p", "11", "--variant", "H", "--n", "3",
                   "--m", "0", "--l", "0", "--format", "json"],
     "construct_q11_h3.json"),
    ("construct", ["construct", "--p", "3", "--k", "2", "--variant", "H",
                   "--n", "3", "--m", "0", "--l", "2", "--format", "json"],
     "construct_q9_h3_l2.json"),
    ("invert", ["invert", "--p", "3", "--k", "2", "--variant", "H", "--n", "3",
                "--m", "0", "--l", "2", "--route", "all", "--format", "json"],
     "invert_q9_all.json"),
    ("count", ["count", "--p", "3", "--k", "2", "--k-max", "5",
               "--format", "json"],
     "count_p3.json"),
)
