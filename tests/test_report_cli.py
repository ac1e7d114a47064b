"""Run configuration, report rendering, suite execution, datasets, and the
command-line front end.  The central property is determinism: a fixed seed
must force byte-identical reports, whatever the process or path.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, example, given, seed, settings,
                        strategies as st)

from twistorsec import cli, flat_model, suites
from twistorsec.report import (RECORD_COLUMNS, RunConfig, atomic_write, check,
                               check_true, failing_suites, format_value,
                               load_vhs_dataset, read_json, render_report, summary,
                               verify_report, vhs_energy_table)
from twistorsec.scalars import QQi
from twistorsec.vhs import VhsBlockData, energy_closed, hyperhol_degree


# -- configuration -------------------------------------------------------------


def test_config_round_trip():
    cfg = RunConfig(suites=["stokes"], seed=7, cases=3, datasets=["d.json"])
    assert RunConfig.from_json(cfg.to_json()) == cfg
    assert cfg.suites == ("stokes",) and cfg.datasets == ("d.json",)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(seed=-1)
    with pytest.raises(ValueError):
        RunConfig(seed=2 ** 64)
    with pytest.raises(ValueError):
        RunConfig(out_format="xml")
    with pytest.raises(ValueError):
        RunConfig(order=0)
    with pytest.raises(ValueError):
        RunConfig(mode_bound=-1)
    with pytest.raises(ValueError):
        RunConfig(cases=-1)
    edge = RunConfig(order=1, mode_bound=0)  # the least of each bound
    assert (edge.order, edge.mode_bound) == (1, 0)
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_json({"seeed": 3})


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 11, "suites": ["sl2-jacobi"]}),
                    encoding="utf-8")
    cfg = RunConfig.from_file(str(path))
    assert cfg.seed == 11 and cfg.suites == ("sl2-jacobi",)


# -- value formatting and records ----------------------------------------------


def test_format_value_branches():
    assert format_value(QQi(1, -2)) == str(QQi(1, -2))
    assert format_value(Fraction(3, 2)) == "3/2"
    assert format_value(-4) == "-4"
    assert format_value("already text") == "already text"
    assert format_value(1.5) == "1.5"
    v = VhsBlockData((1, 1), (1, -1), label="x")
    doc = json.loads(format_value(v))
    assert doc == v.to_json()


_COLUMNS = ("suite", "case", "status", "expected", "actual", "provenance")


def _record(*values):
    """The record with these values of the columns, in order."""
    return dict(zip(_COLUMNS, values, strict=True))


def test_check_and_check_true():
    # A record leaves its suite empty; run_suites files it.
    assert check("c", QQi(2), QQi(2), "prov") == _record(
        "", "c", "pass", "2", "2", "prov")
    assert check("c", QQi(2), QQi(3), "prov") == _record(
        "", "c", "fail", "2", "3", "prov")
    assert check_true("c", False, "the claim", "prov") == _record(
        "", "c", "fail", "the claim", "not (the claim)", "prov")
    assert check_true("c", True, "the claim", "prov")["status"] == "pass"


def test_record_helpers():
    records = [_record("b", "2", "pass", "", "", ""),
               _record("a", "1", "fail", "", "", ""),
               _record("a", "0", "pass", "", "", "")]
    assert summary(records) == {"total": 3, "passed": 2, "failed": 1}
    assert failing_suites(records) == ["a"]


# -- rendering and parsing -----------------------------------------------------


SAMPLE = [_record("beta", "case-1", "pass", "1", "1", "identity A"),
          _record("alpha", "case-2", "fail", "0", "1/2", 'quote " comma,')]


def _read_records(text: str, out_format: str):
    """The records of a rendered report, read back with the standard library."""
    if out_format == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == _COLUMNS
        return [_record(*row) for row in rows[1:]]
    return json.loads(text)["records"]


def _render_records(out_format, records):
    return render_report(out_format, RECORD_COLUMNS, records, "records")


def test_render_json_ignores_out_path():
    with_path = RunConfig(suites=["stokes"], out_path="/tmp/x.json")
    without = RunConfig(suites=["stokes"])
    ordered = sorted(SAMPLE, key=lambda r: (r["suite"], r["case"]))  # as run_suites
    assert (verify_report(with_path, ordered)
            == verify_report(without, ordered))
    text = verify_report(without, ordered)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert [r["suite"] for r in doc["records"]] == ["alpha", "beta"]
    assert "out_path" not in doc["config"]
    assert doc["config"]["exact"] is True


def test_json_record_round_trip():
    # The renderer keeps the order it is given; run_suites sorts.
    assert _read_records(_render_records("json", SAMPLE), "json") == SAMPLE


def test_csv_record_round_trip():
    text = _render_records("csv", SAMPLE)
    assert text.splitlines()[0] == "suite,case,status,expected,actual,provenance"
    assert _read_records(text, "csv") == SAMPLE


def test_render_report_dispatch():
    # One renderer for verify reports and dataset tables: CSV holds the
    # columns, JSON the head fields and every row under the key.
    rows = [{"label": "a", "pair": "", "hyperhol_degree": "", "extra": 1}]
    head = {"summary": {"total": 1}}
    text = render_report("json", ("label", "pair"), rows, "rows", head)
    assert text.endswith("\n") and json.loads(text) == {"rows": rows, **head}
    assert json.loads(render_report("json", ("label",), [], "records")) == {
        "records": []}
    text = render_report("csv", ("label", "pair"), rows, "rows", head)
    assert text == "label,pair\na,\n"
    # The CSV reads the columns alone, whatever the other values are.
    rows = [{"label": "a", "pair": ""}, {"label": "b", "pair": [1], "x": {}}]
    assert render_report("csv", ("label",), rows, "rows") == "label\na\nb\n"
    assert render_report("csv", RECORD_COLUMNS, [], "records") == (
        ",".join(RECORD_COLUMNS) + "\n")


# Characters that a JSON string escapes, or that it keeps as they are only
# without ensure_ascii: quotes, backslashes, control characters, the two line
# separators that JSON allows raw, and non-ASCII ones inside and past the BMP.
_AWKWARD = '"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\u2029\xe9\u20ac\U0001f600'
_texts = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters()), max_size=8)
_keys = st.text(st.sampled_from(_AWKWARD + "acz"), max_size=3)
_row_values = st.one_of(_texts, st.integers(), st.integers(-10 ** 40, 10 ** 40),
                        st.floats(), st.booleans(), st.none())
_head_values = st.recursive(
    _row_values, lambda inner: (st.lists(inner, max_size=3)
                                | st.dictionaries(_keys, inner, max_size=3)),
    max_leaves=4)


@st.composite
def _json_reports(draw):
    """(columns, rows, key, head): rows hold the columns and maybe more keys."""
    columns = draw(st.lists(_keys, min_size=1, max_size=4, unique=True))
    row = st.builds(lambda extra, own: {**extra, **own},
                    st.dictionaries(_keys, _row_values, max_size=3),
                    st.fixed_dictionaries({c: _row_values for c in columns}))
    rows = draw(st.lists(row, max_size=4))
    key = draw(st.one_of(st.sampled_from(["records", "rows"]), _keys))
    head = draw(st.none() | st.dictionaries(_keys, _head_values, max_size=4))
    return columns, rows, key, head


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(_json_reports())
@example((("label",), [], "rows", None))
@example((RECORD_COLUMNS, SAMPLE, "records",
          {"summary": {"total": 2}, "records": [1], "zeta": []}))
def test_json_rows_match_the_stdlib_encoder(report):
    columns, rows, key, head = report
    expected = json.dumps({**(head or {}), key: rows}, sort_keys=True, indent=2,
                          ensure_ascii=False) + "\n"
    assert render_report("json", columns, rows, key, head) == expected


def test_atomic_write(tmp_path):
    target = tmp_path / "report.json"
    atomic_write(str(target), "first\n")
    assert target.read_text(encoding="utf-8") == "first\n"
    atomic_write(str(target), "second\n")
    assert target.read_text(encoding="utf-8") == "second\n"
    # No temporary droppings remain next to the target.
    assert os.listdir(tmp_path) == ["report.json"]
    with pytest.raises(OSError):
        atomic_write(str(tmp_path / "missing" / "x.json"), "text")


# -- suite execution -----------------------------------------------------------


def test_run_suites_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown suite names"):
        suites.run_suites(RunConfig(suites=["no-such-suite"]))


def test_run_suites_deterministic():
    cfg = RunConfig(suites=["moment-map", "stokes"], seed=5, cases=4)
    first = suites.run_suites(cfg)
    second = suites.run_suites(cfg)
    assert first == second
    assert first == sorted(first, key=lambda r: (r["suite"], r["case"]))
    # A different seed still verifies, over different samples.
    other = suites.run_suites(RunConfig(suites=["moment-map", "stokes"],
                                        seed=6, cases=4))
    assert all(r["status"] == "pass" for r in other)


def test_every_suite_passes_smoke():
    cfg = RunConfig(suites=sorted(suites.SUITES), seed=1, cases=2,
                    rank_bound=2)
    records = suites.run_suites(cfg)
    ran = {r["suite"] for r in records}
    assert ran == set(suites.SUITES)
    bad = [r for r in records if r["status"] != "pass"]
    assert not bad, bad[:3]


def test_every_record_is_a_row_of_the_record_columns(monkeypatch):
    # A record is a plain dict: every suite's, and the <suite>/error record of
    # a suite that raises, holds exactly the columns, as strings.
    def raises(config, rng, entries):
        raise RuntimeError("the suite broke")

    monkeypatch.setitem(suites.SUITES, "zz-raises", raises)
    records = suites.run_suites(RunConfig(suites=sorted(suites.SUITES), cases=2))
    assert {r["suite"] for r in records} == set(suites.SUITES)
    for r in records:
        assert type(r) is dict and set(r) == set(RECORD_COLUMNS), r
        assert all(type(v) is str for v in r.values()), r
        assert r["status"] in ("pass", "fail"), r
    assert failing_suites(records) == ["zz-raises"]
    assert [r["case"] for r in records if r["suite"] == "zz-raises"] == ["error"]


# -- datasets ------------------------------------------------------------------


def test_shipped_dataset_contents():
    entries = load_vhs_dataset()
    assert len(entries) == 22
    by_label = {e.label: e for e in entries}
    for g in range(2, 11):
        uni = by_label[f"uniformizing-g{g}"]
        assert uni.pair == f"stable-irreducible-g{g}"
        assert energy_closed(uni) == 1 - g
    assert energy_closed(by_label["three-block-2-0-m2"]) == -4


def test_energy_table_rows():
    entries = load_vhs_dataset()
    rows = {r["label"]: r for r in vhs_energy_table(entries)}
    assert rows["uniformizing-g2"]["energy"] == "-1"
    assert rows["uniformizing-g2"]["hyperhol_degree"] == "-1"
    assert rows["three-block-2-0-m2"]["energy"] == "-4"
    assert rows["three-block-2-0-m2"]["pair"] == ""
    by_label = {e.label: e for e in entries}
    for g in range(2, 11):
        expect = hyperhol_degree(by_label[f"uniformizing-g{g}"],
                                 by_label[f"stable-irreducible-g{g}"])
        assert rows[f"uniformizing-g{g}"]["hyperhol_degree"] == str(expect)


def test_dataset_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    with pytest.raises(ValueError, match="entries"):
        load_vhs_dataset(str(bad))
    dup = tmp_path / "dup.json"
    entry = VhsBlockData((1, 1), (1, -1), label="twin").to_json()
    dup.write_text(json.dumps({"entries": [entry, entry]}), encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        load_vhs_dataset(str(dup))
    # A pair must name an entry of the same rank; the file is checked whole.
    orphan = tmp_path / "orphan.json"
    entry = VhsBlockData((1, 1), (1, -1), label="a", pair="ghost").to_json()
    orphan.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    with pytest.raises(ValueError, match="pair 'ghost' is not in the dataset"):
        load_vhs_dataset(str(orphan))
    ghost = VhsBlockData((3,), (0,), label="ghost").to_json()
    orphan.write_text(json.dumps({"entries": [entry, ghost]}), encoding="utf-8")
    with pytest.raises(ValueError, match="'a' and 'ghost' must share the same rank"):
        load_vhs_dataset(str(orphan))


# -- command line --------------------------------------------------------------


def test_cli_verify_deterministic_bytes(tmp_path):
    args = ["verify", "--suite", "sl2-jacobi", "--suite", "stokes",
            "--seed", "3", "--cases", "3"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    # Where the report lands does not change its bytes.
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text(encoding="utf-8"))
    assert doc["summary"] == {"total": len(doc["records"]),
                              "passed": len(doc["records"]), "failed": 0}
    assert doc["config"]["seed"] == 3
    assert "out_path" not in doc["config"] and doc["config"]["exact"] is True
    keys = [(r["suite"], r["case"]) for r in doc["records"]]
    assert keys == sorted(keys) and {k[0] for k in keys} == {"sl2-jacobi", "stokes"}


def test_cli_verify_stdout_and_csv(capsys):
    assert cli.main(["verify", "--suite", "sl2-jacobi", "--cases", "2",
                     "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("suite,case,status,")
    assert captured.err == ""


def test_cli_verify_failure_exit(monkeypatch, capsys):
    def always_fail(cfg, rng, entries):
        return [check("c0", 0, 1, "doomed")]

    monkeypatch.setitem(suites.SUITES, "always-fail", always_fail)
    code = cli.main(["verify", "--suite", "always-fail"])
    captured = capsys.readouterr()
    assert code == 1
    assert "failing suites: always-fail" in captured.err
    doc = json.loads(captured.out)
    assert doc["summary"]["failed"] == 1
    # The runner files each record under the suite that returned it.
    assert [r["suite"] for r in doc["records"]] == ["always-fail"]


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_cli_suite_crash_is_a_failing_record(tmp_path, monkeypatch, capsys, error):
    # An exception inside a suite is a defect in the code it checks, not an
    # input error: the suite gets one failing record, the others still run.
    def crash(v):
        raise error("y" * 10_000)

    monkeypatch.setattr(suites.vhs, "det_exponent", crash)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", "det-exponent", "--suite", "grade-bracket",
                     "--cases", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "failing suites: det-exponent" in captured.err
    assert "Traceback" not in captured.err
    records = json.loads(out.read_text(encoding="utf-8"))["records"]
    crashed = [r for r in records if r["suite"] == "det-exponent"]
    assert len(crashed) == 1 and crashed[0]["case"] == "error"
    assert crashed[0]["status"] == "fail"
    assert crashed[0]["provenance"].startswith("raised in crash at test_report_cli.py:")
    assert crashed[0]["actual"].startswith(f"{error.__name__}: 'yyy")
    assert len(crashed[0]["actual"]) < 100
    assert {r["status"] for r in records if r["suite"] == "grade-bracket"} == {"pass"}


def test_cli_defect_outside_a_suite_is_not_an_input_error(monkeypatch):
    # Every input is checked before it is read, so a KeyError outside a suite
    # is a defect: it propagates instead of exiting 2 as bad input would.
    def broken(entries):
        raise KeyError("ranks")

    monkeypatch.setattr("twistorsec.report.vhs_energy_table", broken)
    with pytest.raises(KeyError, match="ranks"):
        cli.main(["vhs-energy"])


def test_cli_verify_catches_a_broken_residue_form(monkeypatch, capsys):
    # The residue form without its base term energy(s) * l: the moment-map
    # suite checks the residue form on a fixed number of draws, so it fails
    # even with no random cases.
    def residue_without_base(s, t, l, V):
        X = flat_model.fundamental_field(s)
        return flat_model.relative_symplectic(flat_model.evaluate(X, t),
                                              flat_model.evaluate(V, t))

    monkeypatch.setattr(flat_model, "residue_form_phi", residue_without_base)
    code = cli.main(["verify", "--suite", "moment-map", "--cases", "0"])
    assert code == 1
    assert "failing suites: moment-map" in capsys.readouterr().err


def test_cli_error_exits(tmp_path, capsys):
    assert cli.main(["verify", "--suite", "no-such"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["verify", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["flat-demo", "--blocks", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_and_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"suites": ["sl2-jacobi"], "seed": 9,
                                    "cases": 2}), encoding="utf-8")
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["config"]["seed"] == 9
    assert doc["config"]["suites"] == ["sl2-jacobi"]
    # Flags override file values.
    assert cli.main(["verify", "--config", str(cfg_path), "--seed", "12",
                     "--out", str(out)]) == 0
    report = out.read_text(encoding="utf-8")
    assert json.loads(report)["config"]["seed"] == 12
    # A report's config block, "exact": true included, loads back as a config.
    cfg_path.write_text(json.dumps(json.loads(report)["config"]), encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == report
    capsys.readouterr()


#: JSON text nested deeper than the parser's recursion limit; json.dumps
#: cannot build it.
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("doc, field", [
    ({"seed": "abc"}, "seed"), ({"cases": None}, "cases"),
    ({"order": True}, "order"), ({"suites": "stokes"}, "suites"),
    ({"datasets": [1]}, "datasets"), ({"out_format": 3}, "out_format"),
    ({"out_path": 5}, "out_path"), ({"exact": False}, "exact"),
    ([1, 2], "object"), ({"datasets": ["a", "b"]}, "datasets"),
    # A bound case checks the whole message, under the id of its field.
    pytest.param({"rank_bound": 1}, "config field 'rank_bound' must be >= 2",
                 id="doc10-rank_bound"),
    pytest.param({"order": 0}, "config field 'order' must be >= 1", id="doc11-order"),
    pytest.param({"mode_bound": -1}, "config field 'mode_bound' must be >= 0",
                 id="doc12-mode_bound"),
    pytest.param({"cases": -1}, "config field 'cases' must be >= 0", id="doc13-cases"),
    ({"suites": ["stokes", "stokes"]}, "suites"),
    pytest.param(_DEEP_JSON, "run.json", id="deep-nesting")])
def test_cli_rejects_bad_config(tmp_path, capsys, doc, field):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(doc if isinstance(doc, str) else json.dumps(doc),
                        encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


def test_cli_rejects_a_repeated_suite(tmp_path, capsys):
    # A suite named twice would report each of its identities twice, under
    # one (suite, case) key.
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--suite", "stokes", "--suite", "stokes",
                     "--cases", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "'suites' repeats 'stokes'" in err and not out.exists()


_ENTRY = {"ranks": [1, 1], "degrees": [1, -1], "label": "a"}
_VERIFY_VHS = "verify --suite vhs-energy --cases 1 --dataset DATA"
_STOKES = "verify --suite stokes --cases 1 --dataset DATA"
_HYPERHOL = "verify --suite hyperhol-degree --cases 1 --dataset DATA"
_PLAIN_MISSING = dict(_ENTRY, pair="missing")
_UNIFORMIZING_MISSING = dict(_ENTRY, label="uniformizing-g2", pair="missing")
_G02 = [dict(_ENTRY, label="uniformizing-g02", pair="a"), _ENTRY]
_G0, _G1 = ([dict(_ENTRY, label=f"uniformizing-g{g}", pair="b"),
             {"ranks": [2], "degrees": [0], "label": "b"}] for g in (0, 1))
_BELOW_GENUS_2 = "expected uniformizing-g<genus> with genus >= 2"
_NOT_IN_DATASET = "pair 'missing' is not in the dataset"
_RANK_MISMATCH = ("the 0- and infinity-side data 'uniformizing-g2' and 'b' must share "
                  "the same rank")
#: Degrees in exponent form: Fraction reads "1e5000" as a 5001-digit integer,
#: more digits than str() writes.
_E5000 = [dict(_ENTRY, degrees=["1e5000", "-1e5000"], label="uniformizing-g2",
               pair="irr"), {"ranks": [2], "degrees": [0], "label": "irr"}]
#: Degrees of 4,300 digits, the most int() reads, whose energy (-2p) or pair
#: degree (-2p) has 4,301, one more than str() writes.
_P = "9" * 4300
_WIDE_ENERGY = [{"ranks": [1, 1, 1], "degrees": [_P, 0, "-" + _P], "label": "w"}]
_WIDE_PAIR = [dict(_ENTRY, degrees=[_P, "-" + _P], pair="b"),
              dict(_ENTRY, degrees=[_P, "-" + _P], label="b")]
_WIDE_GENUS = [dict(_ENTRY, label="uniformizing-g" + "1" * 5000, pair="b"),
               {"ranks": [2], "degrees": [0], "label": "b"}]


@pytest.mark.parametrize("entries, command, code, needle", [
    ([1], "vhs-energy --dataset DATA", 2, "entry 0"),
    ([1], _VERIFY_VHS, 2, "entry 0"),
    ([_ENTRY, dict(_ENTRY, label=["b"])], "vhs-energy --dataset DATA", 2,
     "entry 1: field 'label'"),
    ([dict(_ENTRY, label=["b"])], _VERIFY_VHS, 2, "field 'label'"),
    ([dict(_ENTRY, pair=3)], _VERIFY_VHS, 2, "field 'pair'"),
    ([{"ranks": [1, 1], "label": "a"}], _VERIFY_VHS, 2, "field 'degrees'"),
    ([dict(_ENTRY, ranks=[1.5, 1])], _VERIFY_VHS, 2, "ranks must be"),
    ([dict(_ENTRY, ranks=[True, 1])], _VERIFY_VHS, 2, "ranks must be"),
    ([dict(_ENTRY, degrees=[[1, 0], -1])], _VERIFY_VHS, 2, "degree value"),
    ([_ENTRY], "verify --suite hyperhol-degree --cases 1 --dataset DATA", 0, ""),
    ([dict(_ENTRY, label="uniformizing-g2")],
     "verify --suite hyperhol-degree --cases 1 --dataset DATA", 2,
     "'uniformizing-g2' names no pair"),
    ([dict(_ENTRY, label="uniformizing-gx")], _VERIFY_VHS, 2,
     "'uniformizing-gx': expected"),
    ([dict(_ENTRY, label="uniformizing-g02")], _VERIFY_VHS, 2,
     "'uniformizing-g02': expected"),
    pytest.param([dict(_ENTRY, label="uniformizing-g2", pair="b"),
                  {"ranks": [3], "degrees": [0], "label": "b"}],
                 "hyperhol-degree --dataset DATA", 2, _RANK_MISMATCH,
                 id="entries13-hyperhol-degree --dataset DATA-2-'uniformizing-g2' and 'b'"),
    ([_ENTRY], _VERIFY_VHS + " --dataset DATA", 2, "--dataset"),
    ([_ENTRY], "vhs-energy --dataset DATA --dataset DATA", 2, "--dataset"),
    pytest.param(_DEEP_JSON, _VERIFY_VHS, 2, "data.json': JSON nested too deeply",
                 id="deep-nesting"),
    ([1], "verify --suite stokes --cases 1 --dataset DATA", 2, "entry 0"),
    ([_ENTRY], "verify --suite sl2-jacobi --cases 1 --dataset MISSING", 2,
     "No such file"),
    # The dataset is checked whole when it is read, whichever suites run: a
    # pair must name an entry, and for verify, whose suites read the genus off
    # a uniformizing-g<genus> label, such a label must be canonical (and name
    # a genus of at least 2, the last cases below).
    ([_PLAIN_MISSING], _STOKES, 2, _NOT_IN_DATASET),
    ([_PLAIN_MISSING], _HYPERHOL, 2, _NOT_IN_DATASET),
    ([_PLAIN_MISSING], "vhs-energy --dataset DATA", 2, _NOT_IN_DATASET),
    ([_PLAIN_MISSING], "hyperhol-degree --dataset DATA", 2, _NOT_IN_DATASET),
    ([_UNIFORMIZING_MISSING], _STOKES, 2, _NOT_IN_DATASET),
    ([_UNIFORMIZING_MISSING], _HYPERHOL, 2, _NOT_IN_DATASET),
    ([_UNIFORMIZING_MISSING], "vhs-energy --dataset DATA", 2, _NOT_IN_DATASET),
    ([_UNIFORMIZING_MISSING], "hyperhol-degree --dataset DATA", 2, _NOT_IN_DATASET),
    (_G02, _STOKES, 2, "'uniformizing-g02': expected"),
    (_G02, _HYPERHOL, 2, "'uniformizing-g02': expected"),
    (_G02, "vhs-energy --dataset DATA", 0, ""),
    # A pair of another rank is an input error too, not a crash of the suite.
    pytest.param([dict(_ENTRY, label="uniformizing-g2", pair="b"),
                  {"ranks": [3], "degrees": [0], "label": "b"}], _HYPERHOL, 2,
                 _RANK_MISMATCH, id=f"entries30-{_HYPERHOL}-2-'uniformizing-g2' and 'b' "
                                    "must share the same rank"),
    # A degree is p or p/q in decimal, and every energy and pair degree must
    # have few enough digits for the report to print.
    (_E5000, _VERIFY_VHS, 2, "entry 0: not a degree value: '1e5000'"),
    (_E5000, "vhs-energy --dataset DATA", 2, "entry 0: not a degree value"),
    ([dict(_ENTRY, degrees=["1.0", "-1"])], _VERIFY_VHS, 2, "not a degree value"),
    (_WIDE_ENERGY, _STOKES, 2, "entry 'w': energy has too many digits"),
    (_WIDE_ENERGY, "vhs-energy --dataset DATA", 2, "entry 'w': energy has too many"),
    (_WIDE_PAIR, _HYPERHOL, 2, "entry 'a': pair degree has too many digits"),
    (_WIDE_PAIR, "hyperhol-degree --dataset DATA", 2, "'a': pair degree has too"),
    (_WIDE_GENUS, _VERIFY_VHS, 2, "expected uniformizing-g<genus>"),
    # A JSON boolean is not a degree, as it is not a rank.
    ([dict(_ENTRY, degrees=[True, -1])], _VERIFY_VHS, 2, "not a degree value"),
    ([dict(_ENTRY, degrees=[True, -1])], "vhs-energy --dataset DATA", 2,
     "not a degree value"),
    ([dict(_ENTRY, degrees=[[True, 1], -1])], "vhs-energy --dataset DATA", 2,
     "not a degree value"),
    # The paper's degree 1 - g is nonzero only for g >= 2, so verify rejects
    # a smaller genus; the table commands accept any label.
    (_G0, _STOKES, 2, "'uniformizing-g0': " + _BELOW_GENUS_2),
    (_G0, _HYPERHOL, 2, "'uniformizing-g0': " + _BELOW_GENUS_2),
    (_G1, _VERIFY_VHS, 2, "'uniformizing-g1': " + _BELOW_GENUS_2),
    (_G1, "verify --suite hyperhol-degree --cases 0 --dataset DATA", 2,
     "'uniformizing-g1': " + _BELOW_GENUS_2),
    (_G1, "hyperhol-degree --dataset DATA", 0, ""),
])
def test_cli_dataset_input(tmp_path, capsys, entries, command, code, needle):
    path = tmp_path / "data.json"
    path.write_text(entries if isinstance(entries, str)
                    else json.dumps({"entries": entries}), encoding="utf-8")
    names = {"DATA": str(path), "MISSING": str(tmp_path / "missing.json")}
    argv = [names.get(arg, arg) for arg in command.split()]
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert needle in err and "Traceback" not in err


#: A one-block uniformizing entry: both its genus and its single block call
#: for a vhs-energy record.  Its energy is 0, not 1 - g, so the run fails.
_G2_ONE_BLOCK = [{"ranks": [2], "degrees": [0], "label": "uniformizing-g2",
                  "pair": "b"}, {"ranks": [2], "degrees": [0], "label": "b"}]


@pytest.mark.parametrize("command, code", [
    ("verify", 0), ("verify --suite vhs-energy --cases 0 --dataset DATA", 1),
], ids=["default", "one-block-uniformizing"])
def test_report_cases_are_unique(tmp_path, command, code):
    out, path = tmp_path / "report.json", tmp_path / "data.json"
    path.write_text(json.dumps({"entries": _G2_ONE_BLOCK}), encoding="utf-8")
    argv = [str(path) if arg == "DATA" else arg for arg in command.split()]
    assert cli.main(argv + ["--out", str(out)]) == code
    records = json.loads(out.read_text())["records"]
    keys = [(r["suite"], r["case"]) for r in records]
    assert len(keys) == len(set(keys))
    # Every exact value renders one way, so a pass shows two equal strings.
    mismatched = [r for r in records
                  if r["status"] == "pass" and r["expected"] != r["actual"]]
    assert mismatched == []


def test_verify_reads_the_dataset_once(tmp_path, monkeypatch):
    # The dataset suites vhs-energy and hyperhol-degree share one read.
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"entries": [e.to_json() for e in load_vhs_dataset()]}),
                    encoding="utf-8")
    reads = []

    def counting_read_json(name):
        reads.append(name)
        return read_json(name)

    monkeypatch.setattr("twistorsec.report.read_json", counting_read_json)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--cases", "0", "--dataset", str(path),
                     "--out", str(out)]) == 0
    assert reads == [str(path)]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert {r["suite"] for r in doc["records"]} >= {"vhs-energy", "hyperhol-degree"}


_LONG = "x" * 100_000
_VERIFY = "verify --config CFG"
_DEGREES = "hyperhol-degree --dataset DATA"
_VHS_RUN = {"suites": ["vhs-energy"], "cases": 1, "datasets": ["DATA"]}
_DEGREE_RUN = {"suites": ["hyperhol-degree"], "cases": 1, "datasets": ["DATA"]}


@pytest.mark.parametrize("command, config, entries, needle", [
    pytest.param(_VERIFY, '{"seed": ' + "[" * 500 + "]" * 500 + "}", [], "'seed'",
                 id="nested-seed"),
    pytest.param(_VERIFY, {"seed": _LONG}, [], "'seed'", id="long-seed"),
    pytest.param(_VERIFY, {"suites": [_LONG]}, [], "unknown suite names",
                 id="long-suite"),
    pytest.param(_VERIFY, {_LONG: 1}, [], "unknown config fields", id="long-key"),
    pytest.param(_VERIFY, _VHS_RUN, [dict(_ENTRY, degrees=[_LONG, 0])],
                 "degree value", id="long-degree"),
    pytest.param(_VERIFY, _VHS_RUN, [dict(_ENTRY, label="uniformizing-g1" + _LONG)],
                 "expected uniformizing-g", id="long-label"),
    pytest.param(_VERIFY, _DEGREE_RUN,
                 [dict(_ENTRY, label="uniformizing-g2", pair=_LONG)],
                 "is not in the dataset", id="long-missing-pair"),
    pytest.param(_DEGREES, None, [dict(_ENTRY, pair=_LONG)], "is not in the dataset",
                 id="long-unknown-pair"),
    pytest.param(_DEGREES, None, [dict(_ENTRY, pair=_LONG),
                                  {"ranks": [3], "degrees": [0], "label": _LONG}],
                 "same rank", id="long-paired-label"),
    pytest.param("verify --config LONG", None, [], "Errno", id="long-config-path"),
    pytest.param("verify --suite sl2-jacobi --cases 0 --out LONG", None, [], "Errno",
                 id="long-out-path"),
    pytest.param("vhs-energy --dataset LONG", None, [], "Errno",
                 id="long-dataset-path"),
    pytest.param("vhs-energy --dataset DEEP", None, [], "JSON nested too deeply",
                 id="long-path-to-deep-json"),
])
def test_cli_error_echoes_a_short_repr(tmp_path, capsys, command, config, entries,
                                       needle):
    data, cfg = tmp_path / "data.json", tmp_path / "run.json"
    data.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    if isinstance(config, dict) and config.get("datasets") == ["DATA"]:
        config = dict(config, datasets=[str(data)])
    cfg.write_text(config if isinstance(config, str) else json.dumps(config),
                   encoding="utf-8")
    names = {"CFG": str(cfg), "DATA": str(data),
             "LONG": str(tmp_path / ("x" * 5000))}  # a file name the system rejects
    if "DEEP" in command:  # a readable file, too deeply nested to parse, deep down
        deep = tmp_path.joinpath(*["d" * 200] * 15, "data.json")
        deep.parent.mkdir(parents=True)
        deep.write_text(_DEEP_JSON, encoding="utf-8")
        names["DEEP"] = str(deep)
        assert len(names["DEEP"]) >= 3000
    argv = [names.get(arg, arg) for arg in command.split()]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert needle in captured.err and captured.err.count("\n") == 1
    assert len(captured.err.encode()) <= 200


# Arbitrary JSON.  Object keys come from an alphabet no config field name
# uses, so an arbitrary object is an unknown-field error, never a slow
# all-suites run at the default case count.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4),
    lambda kids: (st.lists(kids, max_size=3)
                  | st.dictionaries(st.text("xyz", max_size=3), kids, max_size=3)),
    max_leaves=6)
# The cheap suites and the dataset suites.  A well-typed config runs them
# with one lift suite, which draws ranks 2..rank_bound, and takes each bound
# from its valid range or the value just below it.
_FUZZ_SUITES = ("sl2-jacobi", "chart-involution", "moment-map", "vhs-energy",
                "hyperhol-degree", "xi-weights", "stokes")
_fuzz_fields = {"seed": st.integers(-1, 5), "order": st.integers(-1, 3),
                "mode_bound": st.integers(-1, 2), "rank_bound": st.integers(-1, 3),
                "cases": st.integers(-1, 2), "datasets": st.just(["DATA"]),
                "out_format": st.sampled_from(["json", "csv"]),
                "exact": st.just(True)}
_fuzz_config = st.one_of(
    st.fixed_dictionaries(
        {"suites": st.lists(st.sampled_from(_FUZZ_SUITES), max_size=2).map(
            lambda names: names + ["gauge-covariance"]),
         "cases": st.integers(-1, 2), "order": st.integers(0, 3),
         "mode_bound": st.integers(-1, 2), "rank_bound": st.integers(1, 3)},
        optional={k: _fuzz_fields[k] for k in ("seed", "out_format")}),
    st.fixed_dictionaries(
        {"suites": st.lists(st.sampled_from(_FUZZ_SUITES) | st.text(max_size=3),
                            min_size=1, max_size=3) | _json,
         "cases": _fuzz_fields["cases"] | _json},
        optional={**{k: v | _json for k, v in _fuzz_fields.items() if k != "cases"},
                  "out_path": _json}),
    _json.filter(lambda doc: doc != {}))
_fuzz_entry = _json | st.fixed_dictionaries({}, optional={
    "ranks": st.lists(st.integers(-1, 3), max_size=3) | _json,
    "degrees": st.lists(st.integers(-2, 2)
                        | st.sampled_from(["1/2", "1/0", "x", "1e5000", "-1e5000"]),
                        max_size=3) | _json,
    "label": st.sampled_from(["a", "b", "uniformizing-g2", "uniformizing-g3"]) | _json,
    "pair": st.sampled_from(["", "a", "b"]) | _json})
_fuzz_dataset = _json | st.fixed_dictionaries(
    {"entries": st.lists(_fuzz_entry, max_size=3) | _json})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_config, _fuzz_dataset)
@example({"suites": ["gauge-covariance"], "cases": 1, "rank_bound": 1}, {})
@example({"suites": ["vhs-energy"], "cases": 1, "datasets": ["DATA"]},
         {"entries": _E5000})
@example({"suites": ["stokes", "stokes"], "cases": 1}, {})
def test_cli_exit_contract_on_arbitrary_json(config, dataset):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.json")
        with open(data, "w", encoding="utf-8") as fh:
            json.dump(dataset, fh)
        # The table commands read the same dataset; no defect may reach them.
        for command in ("vhs-energy", "hyperhol-degree"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([command, "--dataset", data])
            assert code in (0, 2) and "Traceback" not in err.getvalue()
            assert (code == 2) == err.getvalue().startswith("error: ")
        if isinstance(config, dict) and config.get("datasets") == ["DATA"]:
            config = dict(config, datasets=[data])
        cfg = os.path.join(tmp, "run.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = os.path.join(tmp, "report"), io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["verify", "--config", cfg, "--out", out])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ") and not os.path.exists(out)
            return
        with open(out, encoding="utf-8") as fh:
            records = _read_records(fh.read(), config.get("out_format", "json"))
        assert (code == 1) == any(r["status"] != "pass" for r in records)
        keys = [(r["suite"], r["case"]) for r in records]
        assert len(keys) == len(set(keys))  # one record per identity
        # Every input is checked before a suite runs, so no suite may crash.
        assert not any(r["case"] == "error" for r in records)


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = "import sys, twistorsec.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_cli_vhs_energy_table(tmp_path):
    out = tmp_path / "table.json"
    assert cli.main(["vhs-energy", "--out", str(out)]) == 0
    rows = {r["label"]: r for r in
            json.loads(out.read_text(encoding="utf-8"))["rows"]}
    for g in range(2, 11):
        assert rows[f"uniformizing-g{g}"]["energy"] == str(1 - g)
    out_csv = tmp_path / "table.csv"
    assert cli.main(["vhs-energy", "--format", "csv",
                     "--out", str(out_csv)]) == 0
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label,n,l,energy,pair,hyperhol_degree"
    assert len(lines) == 23


def test_cli_hyperhol_degree(tmp_path):
    out = tmp_path / "deg.json"
    assert cli.main(["hyperhol-degree", "--out", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert all(r["pair"] for r in rows)
    degrees = {r["label"]: r["hyperhol_degree"] for r in rows}
    for g in range(2, 11):
        assert degrees[f"uniformizing-g{g}"] == str(1 - g)


#: sha256 of the reports and tables that a change to the program must leave
#: byte-identical.  Acceptance test 13 pins `verify --seed 42 --cases 6` JSON.
_VERIFY_42 = "verify --seed 42"
_FLAT_DEMO = "flat-demo --seed 3 --blocks 2"
#: The suites of the benchmark's `sections` and `lift-deep` workloads, in the
#: order of `perfbench/workloads.py`; the order is part of the config block.
_SECTIONS = ("sl2-jacobi", "killing-form", "wronskian-pairing", "chart-involution",
             "omega0-invariance", "energy-invariance", "tau-equivariance",
             "moment-map", "evaluation-fiber", "omega0-reality", "energy-reality",
             "vhs-energy", "hyperhol-degree", "det-exponent", "grade-bracket",
             "xi-weights")
_LIFTS = ("gauge-covariance", "omega-hat-degeneracy", "energy-gauge-invariance",
          "second-variation-weights", "dh-involutions", "beta1-independence")


def _suite_flags(names):
    return "".join(f" --suite {name}" for name in names)


@pytest.mark.parametrize("command, sha256", [
    (_VERIFY_42 + " --cases 25",
     "ded376831b1dc911f572243b21ad5a002edd7a34aeb6239c3e763df8acaf52de"),
    (_VERIFY_42 + " --cases 6 --format csv",
     "024ecbff3b150f1f08624bf55a41fcbdde971a0f1d056bba3bc3ed7348be2a40"),
    ("vhs-energy", "f6f62cabf0e9d8705c63a78eb2a20574cde312b7812a2a870138de638f041fd5"),
    ("vhs-energy --format csv",
     "0c63e9760e17b6f29ca296abc9aaf2d9234ad2c60794388a01182bf1cbffb43a"),
    ("hyperhol-degree",
     "6b1ba9c034a6ea6867f017b8dec3267faaa054e31ee61dfee627b4df5c3fff57"),
    ("hyperhol-degree --format csv",
     "eada9020cc2d59ff4436e7a79469eaa0faef0fcf5961f90e6cb4cf3202e2a7f9"),
    (_FLAT_DEMO, "2fb3b0194b67cafa395fbe0165dbc9a6d37ba7a84e9da3feae439ab79189a5d5"),
    (_FLAT_DEMO + " --format csv",
     "4ffe50b715735a92584d731a9dd7eec81b45fba75a97e3ad0b9bae3388e2a3aa"),
    ("verify --seed 7 --cases 10",
     "2aa8e852053029f09051ace4cf6d246e60d706b3a8a5bcb8d86af2d8e5499ad1"),
    ("verify --seed 3 --cases 4 --order 6 --modes 3 --rank 4",
     "3735028cc6a89498b1e22c31b0bddb1a3201835b6b59f3f1020ac3377156410d"),
    (_VERIFY_42 + _suite_flags(_SECTIONS) + " --cases 300",
     "8f4085fb361961c6c0e02009244befb25b2be7095265682ca04e99d513a7de82"),
    (_VERIFY_42 + _suite_flags(_LIFTS) + " --order 6 --modes 3 --cases 2",
     "8b60bd67bbc43f44ec6d3d192848d58a4440ac7eb36c39307f5929bca47342f2"),
])
def test_cli_golden_outputs(tmp_path, command, sha256):
    out = tmp_path / "out"
    assert cli.main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_cli_flat_demo(tmp_path):
    out1, out2 = tmp_path / "d1.json", tmp_path / "d2.json"
    args = ["flat-demo", "--seed", "21", "--blocks", "3"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text(encoding="utf-8"))
    assert doc["moment_map_identity"] is True
    assert doc["reality_identity"] is True
    assert doc["blocks"] == 3
    other = tmp_path / "d3.json"
    assert cli.main(["flat-demo", "--seed", "22", "--blocks", "3",
                     "--out", str(other)]) == 0
    assert other.read_bytes() != out1.read_bytes()
