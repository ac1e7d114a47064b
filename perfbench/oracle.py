"""Independent oracle for the torus pairing and the lift energy.

The benchmark draws seeded rank-2 and rank-3 matrix forms at mode bounds 2
and 3 as JSON documents in the layout of ``MatrixForm.to_json``.  From the
JSON alone, with plain ``Fraction`` arithmetic, it computes

    integral tr(a ^ b) = (-1)^(q_a * p_b) * sum_ij sum_k a_ij[k] * b_ji[-k]

(unit torus volume: only the constant Fourier mode of the trace survives),
and compares it with ``integrate_trace(wedge(a, b))`` and with
``energy_of_lift`` of the lift whose Phi is ``a`` and whose Psi_1 is ``b``
(unit energy prefactor).  The sum is written out here, so the check stays
valid when the library fuses or reorders its pairing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from check import parse_value

#: (rank, mode bound) of each pair drawn by one oracle pass.
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
TERMS = 5  # Fourier terms drawn per matrix entry


def _coefficient(rng) -> tuple:
    return (Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)))


def _cell_doc(modes: dict) -> dict:
    return {"modes": [[m, n, [c[0].numerator, c[0].denominator,
                              c[1].numerator, c[1].denominator]]
                      for (m, n), c in sorted(modes.items()) if c != (0, 0)]}


def random_form_doc(rng, size: int, bidegree, mode_bound: int) -> dict:
    """A trace-free form as JSON: the last diagonal entry cancels the others."""
    cells = [[{} for _ in range(size)] for _ in range(size)]
    for row in cells:
        for cell in row:
            for _ in range(TERMS):
                key = (rng.randint(-mode_bound, mode_bound),
                       rng.randint(-mode_bound, mode_bound))
                cell[key] = _coefficient(rng)
    last = {}
    for i in range(size - 1):
        for key, (re, im) in cells[i][i].items():
            old = last.get(key, (Fraction(0), Fraction(0)))
            last[key] = (old[0] - re, old[1] - im)
    cells[size - 1][size - 1] = last
    return {"bidegree": list(bidegree), "size": size,
            "entries": [[_cell_doc(cell) for cell in row] for row in cells]}


def _cells(doc: dict):
    return [[{(m, n): (Fraction(c[0], c[1]), Fraction(c[2], c[3]))
              for m, n, c in cell["modes"]} for cell in row]
            for row in doc["entries"]]


def pairing(a_doc: dict, b_doc: dict) -> tuple:
    """integral tr(a ^ b) for complementary 1-forms, as (re, im) Fractions."""
    (pa, qa), (pb, qb) = a_doc["bidegree"], b_doc["bidegree"]
    if (pa + pb, qa + qb) != (1, 1):
        raise ValueError("the pairing needs one (1,0) and one (0,1) form")
    a, b = _cells(a_doc), _cells(b_doc)
    re, im = Fraction(0), Fraction(0)
    for i in range(a_doc["size"]):
        for j in range(a_doc["size"]):
            for (m, n), (xr, xi) in a[i][j].items():
                y = b[j][i].get((-m, -n))
                if y is not None:
                    re += xr * y[0] - xi * y[1]
                    im += xr * y[1] + xi * y[0]
    sign = -1 if (qa * pb) % 2 else 1
    return sign * re, sign * im


def library_values(a_doc: dict, b_doc: dict) -> dict:
    """The library's values on the same data, as (re, im) Fractions."""
    from twistorsec.lambda_lifts import LambdaLift, energy_of_lift
    from twistorsec.torus_forms import MatrixForm, integrate_trace, wedge

    a, b = MatrixForm.from_json(a_doc), MatrixForm.from_json(b_doc)
    size = a_doc["size"]
    zero_phi = {"bidegree": [1, 0], "size": size,
                "entries": [[{"modes": []}] * size] * size}
    lift = LambdaLift.from_json({"rank": size, "order": 1, "phi0": a_doc,
                                 "psi": [b_doc], "phi": [zero_phi]})
    values = {"integrate_trace(wedge(a, b))": integrate_trace(wedge(a, b)),
              "integrate_trace(wedge(b, a))": integrate_trace(wedge(b, a)),
              "energy_of_lift": energy_of_lift(lift)}
    return {name: parse_value(str(v)) for name, v in values.items()}


def mismatches(a_doc: dict, b_doc: dict, values: dict) -> list:
    """What in ``values`` (from :func:`library_values`) disagrees with the oracle."""
    ab, ba = pairing(a_doc, b_doc), pairing(b_doc, a_doc)
    want = {"integrate_trace(wedge(a, b))": ab, "integrate_trace(wedge(b, a))": ba,
            "energy_of_lift": ab}
    return [f"{name} rank {a_doc['size']}: library {values.get(name)}, "
            f"oracle {want[name]}"
            for name in want if values.get(name) != ("q",) + want[name]]


def check_pairings(seed: int, probe: int) -> tuple:
    """One oracle pass over :data:`SHAPES`; returns (pairs checked, problems)."""
    rng = random.Random(f"{seed}:oracle:{probe}")
    problems = []
    for size, mode_bound in SHAPES:
        a = random_form_doc(rng, size, (1, 0), mode_bound)
        b = random_form_doc(rng, size, (0, 1), mode_bound)
        problems += mismatches(a, b, library_values(a, b))
    return len(SHAPES), problems
