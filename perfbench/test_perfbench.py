"""Tests of the benchmark itself: the report checker, the oracle and the tracer.

Run from the root of the checkout with ``python3 -m pytest -q perfbench``.
"""

import copy
import json
import os
import random
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import oracle  # noqa: E402
from check import check_report, same_value  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import metric_names  # noqa: E402
from workloads import ALL_SUITES, WORKLOADS, Workload  # noqa: E402

SMALL = Workload("small", ALL_SUITES, order=2, mode_bound=1, rank_bound=3, cases=2)
SEED = 11


def _child(spec: dict) -> dict:
    spec = dict({"src": SRC, "seed": SEED, "probe": 0, "trace": False,
                 "t0": time.monotonic()}, **spec)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _verify(tmp_path, name: str, trace: bool):
    out = str(tmp_path / name)
    result = _child({"mode": "verify", "trace": trace,
                     "argv": SMALL.argv(SEED, out)})
    with open(out, encoding="utf-8") as fh:
        return result, fh.read()


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return _verify(tmp_path_factory.mktemp("report"), "report.json", False)[1]


def _problems(doc) -> list:
    return check_report(json.dumps(doc), SMALL, SEED)[2]


def test_checker_accepts_the_real_report(report):
    records, failed, problems = check_report(report, SMALL, SEED)
    assert problems == []
    assert failed == 0
    assert records == len(json.loads(report)["records"])


@pytest.mark.parametrize("suite", ["wronskian-pairing", "sl2-jacobi", "tau-equivariance",
                                   "backend-exactness", "gauge-covariance"])
def test_checker_rejects_an_altered_value_still_marked_pass(report, suite):
    doc = json.loads(report)
    record = next(r for r in doc["records"] if r["suite"] == suite)
    text = record["actual"]
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    if not digits:  # a boolean property: its detail text is the value
        record["actual"] = f"not ({text})"
    else:  # the last digit sits in the last number of a value
        i = digits[-1]
        record["actual"] = text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1:]
    assert _problems(doc)


def test_checker_rejects_a_missing_suite(report):
    doc = json.loads(report)
    doc["records"] = [r for r in doc["records"] if r["suite"] != "moment-map"]
    doc["summary"] = {"total": len(doc["records"]), "passed": len(doc["records"]),
                      "failed": 0}
    assert any("moment-map" in p for p in _problems(doc))


def test_checker_rejects_a_flipped_status(report):
    doc = json.loads(report)
    doc["records"][5]["status"] = "fail"
    assert any("summary" in p for p in _problems(doc))


def test_checker_counts_a_consistent_failure_without_a_problem(report):
    doc = json.loads(report)
    doc["records"][5]["status"] = "fail"
    doc["summary"] = {"total": len(doc["records"]),
                      "passed": len(doc["records"]) - 1, "failed": 1}
    records, failed, problems = check_report(json.dumps(doc), SMALL, SEED)
    assert (failed, problems) == (1, [])


def test_values_compare_by_what_they_denote():
    assert same_value("Sl2Element(a_e=QQi('0'), a_h=QQi('0'), a_f=QQi('0'))",
                      "Sl2Element(a_e=0, a_h=0, a_f=0)")
    assert same_value("2/4", "1/2")
    assert not same_value("1/2-3/4i", "1/2+3/4i")
    assert not same_value("PolySection(degree_bound=0, coeffs=(QQi('8-4i'),))",
                          "PolySection(degree_bound=0, coeffs=(QQi('8+4i'),))")
    assert not same_value('{"d":1,"blocks":[[[0,1,0,1]]]}',
                          '{"d":1,"blocks":[[[1,1,0,1]]]}')
    assert not same_value("degree is nonzero", "not (degree is nonzero)")


def test_oracle_agrees_with_the_library():
    pairs, problems = oracle.check_pairings(SEED, 0)
    assert (pairs, problems) == (len(oracle.SHAPES), [])


def test_oracle_rejects_a_perturbed_form():
    rng = random.Random(5)
    a = oracle.random_form_doc(rng, 3, (1, 0), 2)
    b = oracle.random_form_doc(rng, 3, (0, 1), 2)
    bad = copy.deepcopy(a)
    # an off-diagonal coefficient of a that meets a partner in b moves the sum
    # and keeps a trace-free
    coeff = next(c for i, row in enumerate(bad["entries"])
                 for j, cell in enumerate(row) if i != j
                 for m, n, c in cell["modes"]
                 if any((p, q) == (-m, -n) for p, q, _ in b["entries"][j][i]["modes"]))
    coeff[0] += coeff[1]
    assert bad != a
    assert oracle.mismatches(a, b, oracle.library_values(a, b)) == []
    assert oracle.mismatches(a, b, oracle.library_values(bad, b))


def test_traced_runs_repeat_exactly_and_keep_the_report(tmp_path):
    plain, plain_report = _verify(tmp_path, "plain.json", False)
    first, first_report = _verify(tmp_path, "first.json", True)
    second, second_report = _verify(tmp_path, "second.json", True)
    assert plain_report == first_report == second_report
    units = dict(metric_names())
    exact = [name for name in units if units[name] != "s"]
    assert [first["layers"][n] for n in exact] == [second["layers"][n] for n in exact]
    assert first["layers"]["torus_forms.coeff_products"] > 0
    assert first["layers"]["lambda_lifts.gauge_tangent.calls"] > 0
    records = sum(first["layers"][f"suites.{s}.records"] for s in ALL_SUITES)
    assert records == len(json.loads(first_report)["records"])


def test_benchmark_json_names_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_names()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "sections", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
