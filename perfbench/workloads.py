"""The benchmark's workloads: which `twistorsec verify` command each one runs.

Every workload is one closed-loop `verify` at a time.  The benchmark seed is
passed to `verify --seed`; nothing else about the inputs varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

PROJLINE_SUITES = ("sl2-jacobi", "killing-form", "wronskian-pairing",
                   "chart-involution")
FLAT_SUITES = ("omega0-invariance", "energy-invariance", "tau-equivariance",
               "moment-map", "evaluation-fiber", "omega0-reality",
               "energy-reality")
VHS_SUITES = ("vhs-energy", "hyperhol-degree", "det-exponent", "grade-bracket",
              "xi-weights")
TORUS_SUITES = ("stokes", "d-squared", "trace-cyclicity", "backend-exactness")
LIFT_SUITES = ("gauge-covariance", "omega-hat-degeneracy",
               "energy-gauge-invariance", "second-variation-weights",
               "dh-involutions", "beta1-independence")
ALL_SUITES = (PROJLINE_SUITES + FLAT_SUITES + VHS_SUITES + TORUS_SUITES
              + LIFT_SUITES)

#: Fewest records each suite emits for a given case count, read off the suite
#: bodies: fixed hand-checked records plus a fixed number per random case.
#: Suites that add records only for some random cases count the sure ones.
MIN_RECORDS = {
    "sl2-jacobi": lambda c: 27 + c,
    "killing-form": lambda c: 4 + 9 + 27 + c,
    "wronskian-pairing": lambda c: 2 + 3 * c,
    "chart-involution": lambda c: c,
    "omega0-invariance": lambda c: c,
    "energy-invariance": lambda c: c,
    "tau-equivariance": lambda c: 2 * c,
    "moment-map": lambda c: 3 * c,
    "evaluation-fiber": lambda c: 2 * c,
    "omega0-reality": lambda c: c,
    "energy-reality": lambda c: c,
    "vhs-energy": lambda c: c + 3,
    "hyperhol-degree": lambda c: 2 * c + 18,
    "det-exponent": lambda c: c,
    "grade-bracket": lambda c: c,
    "xi-weights": lambda c: 2 * c,
    "stokes": lambda c: 2 * c,
    "d-squared": lambda c: c + 3,
    "trace-cyclicity": lambda c: c,
    "backend-exactness": lambda c: 3 * max(3, c // 5),
    "gauge-covariance": lambda c: c,
    "omega-hat-degeneracy": lambda c: 4 * c,
    "energy-gauge-invariance": lambda c: c,
    "second-variation-weights": lambda c: c,
    "dh-involutions": lambda c: 3 * c,
    "beta1-independence": lambda c: 2 * c + 1,
}


@dataclass(frozen=True)
class Workload:
    """One `verify` configuration.  ``flags`` False means the CLI defaults."""

    name: str
    suites: tuple
    order: int = 4
    mode_bound: int = 2
    rank_bound: int = 3
    cases: int = 25
    flags: bool = True

    def argv(self, seed: int, out_path: str) -> list:
        args = ["verify", "--seed", str(seed), "--out", out_path]
        if self.flags:
            for suite in self.suites:
                args += ["--suite", suite]
            args += ["--order", str(self.order), "--modes", str(self.mode_bound),
                     "--rank", str(self.rank_bound), "--cases", str(self.cases)]
        return args

    def min_records(self) -> dict:
        return {suite: MIN_RECORDS[suite](self.cases) for suite in self.suites}


WORKLOADS = {w.name: w for w in (
    # What users and the ROADMAP gate run: every suite at the CLI defaults
    # (order 4, mode bound 2, rank bound 3, 25 cases), passed as no flags.
    Workload("verify-default", ALL_SUITES, flags=False),
    # The section calculus alone, at a large case count: pure QQi arithmetic
    # on small tuples and a report of several MB, with no Fourier series.
    Workload("sections", PROJLINE_SUITES + FLAT_SUITES + VHS_SUITES, cases=300),
    # The lift suites on longer series and denser Fourier polynomials, so
    # work that grows with truncation order or mode count shows.
    Workload("lift-deep", LIFT_SUITES, order=6, mode_bound=3, cases=2),
)}
