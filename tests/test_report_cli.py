"""Run configuration, report rendering, suite execution, datasets, and the
command-line front end.  The central property is determinism: a fixed seed
must force byte-identical reports, whatever the process or path.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from twistorsec import cli, suites
from twistorsec.datasets import (load_vhs_dataset, render_table,
                                 vhs_energy_table)
from twistorsec.report import (RunConfig, ReportRecord, atomic_write, check,
                               check_true, failing_suites, format_value,
                               load_records, render_csv, render_json,
                               render_report, sort_records, summary)
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
        RunConfig(cases=-1)
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
    assert format_value(None) == ""
    assert format_value(True) == "true" and format_value(False) == "false"
    assert format_value(QQi(1, -2)) == str(QQi(1, -2))
    assert format_value(Fraction(3, 2)) == "3/2"
    assert format_value(-4) == "-4"
    assert format_value("already text") == "already text"
    assert format_value(1.5) == "1.5"
    assert format_value([1, Fraction(1, 3)]) == "[1, 1/3]"
    v = VhsBlockData((1, 1), (1, -1), label="x")
    doc = json.loads(format_value(v))
    assert doc == v.to_json()


def test_check_and_check_true():
    good = check("s", "c", QQi(2), QQi(2), "prov")
    assert good.passed and good.expected == good.actual == "2"
    bad = check("s", "c", QQi(2), QQi(3), "prov")
    assert not bad.passed and bad.status == "fail"
    cond = check_true("s", "c", False, "the claim", "prov")
    assert cond.actual == "not (the claim)"
    assert check_true("s", "c", True, "the claim", "prov").passed
    with pytest.raises(ValueError):
        ReportRecord("s", "c", "maybe", "", "", "")


def test_record_helpers():
    records = [ReportRecord("b", "2", "pass", "", "", ""),
               ReportRecord("a", "1", "fail", "", "", ""),
               ReportRecord("a", "0", "pass", "", "", "")]
    ordered = sort_records(records)
    assert [(r.suite, r.case) for r in ordered] == [("a", "0"), ("a", "1"),
                                                    ("b", "2")]
    assert summary(records) == {"total": 3, "passed": 2, "failed": 1}
    assert failing_suites(records) == ["a"]


# -- rendering and parsing -----------------------------------------------------


SAMPLE = [ReportRecord("beta", "case-1", "pass", "1", "1", "identity A"),
          ReportRecord("alpha", "case-2", "fail", "0", "1/2", 'quote " comma,')]


def test_render_json_ignores_out_path():
    with_path = RunConfig(suites=["stokes"], out_path="/tmp/x.json")
    without = RunConfig(suites=["stokes"])
    assert render_json(with_path, SAMPLE) == render_json(without, SAMPLE)
    text = render_json(without, SAMPLE)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert [r["suite"] for r in doc["records"]] == ["alpha", "beta"]
    assert "out_path" not in doc["config"]
    assert doc["config"]["exact"] is True


def test_json_record_round_trip():
    cfg = RunConfig()
    back = load_records(render_json(cfg, SAMPLE), "json")
    assert back == sort_records(SAMPLE)


def test_csv_record_round_trip():
    cfg = RunConfig(out_format="csv")
    text = render_csv(cfg, SAMPLE)
    assert text.splitlines()[0] == "suite,case,status,expected,actual,provenance"
    back = load_records(text, "csv")
    assert back == sort_records(SAMPLE)
    with pytest.raises(ValueError):
        load_records("not,a,report\n1,2,3\n", "csv")
    with pytest.raises(ValueError):
        load_records(text, "yaml")


def test_render_report_dispatch():
    cfg = RunConfig()
    assert render_report(cfg, SAMPLE) == render_json(cfg, SAMPLE)
    assert render_report(cfg, SAMPLE, "csv") == render_csv(cfg, SAMPLE)
    with pytest.raises(ValueError):
        render_report(cfg, SAMPLE, "xml")


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
    assert first == sort_records(first)
    # A different seed still verifies, over different samples.
    other = suites.run_suites(RunConfig(suites=["moment-map", "stokes"],
                                        seed=6, cases=4))
    assert all(r.passed for r in other)


def test_every_suite_passes_smoke():
    cfg = RunConfig(suites=sorted(suites.SUITES), seed=1, cases=2,
                    rank_bound=2)
    records = suites.run_suites(cfg)
    ran = {r.suite for r in records}
    assert ran == set(suites.SUITES)
    bad = [r for r in records if not r.passed]
    assert not bad, bad[:3]


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
    orphan = VhsBlockData((1, 1), (1, -1), label="a", pair="ghost")
    with pytest.raises(ValueError, match="unknown pair"):
        vhs_energy_table([orphan])
    with pytest.raises(ValueError):
        render_table([], "xml")


# -- command line --------------------------------------------------------------


def test_cli_verify_deterministic_bytes(tmp_path):
    args = ["verify", "--suite", "sl2-jacobi", "--suite", "stokes",
            "--seed", "3", "--cases", "3"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text(encoding="utf-8"))
    assert doc["summary"]["failed"] == 0
    assert doc["config"]["seed"] == 3


def test_cli_verify_stdout_and_csv(capsys):
    assert cli.main(["verify", "--suite", "sl2-jacobi", "--cases", "2",
                     "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("suite,case,status,")
    assert captured.err == ""


def test_cli_verify_failure_exit(monkeypatch, capsys):
    def always_fail(cfg, rng):
        return [ReportRecord("always-fail", "c0", "fail", "0", "1", "doomed")]

    monkeypatch.setitem(suites.SUITES, "always-fail", always_fail)
    code = cli.main(["verify", "--suite", "always-fail"])
    captured = capsys.readouterr()
    assert code == 1
    assert "failing suites: always-fail" in captured.err
    assert json.loads(captured.out)["summary"]["failed"] == 1


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


@pytest.mark.parametrize("doc, field", [
    ({"seed": "abc"}, "seed"), ({"cases": None}, "cases"),
    ({"order": True}, "order"), ({"suites": "stokes"}, "suites"),
    ({"datasets": [1]}, "datasets"), ({"out_format": 3}, "out_format"),
    ({"out_path": 5}, "out_path"), ({"exact": False}, "exact"),
    ([1, 2], "object"), ({"datasets": ["a", "b"]}, "datasets"),
    ({"rank_bound": 1}, "rank_bound"), ({"order": 0}, "order"),
    ({"mode_bound": -1}, "mode_bound"), ({"cases": -1}, "cases")])
def test_cli_rejects_bad_config(tmp_path, capsys, doc, field):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert field in captured.err and captured.out == ""


_ENTRY = {"ranks": [1, 1], "degrees": [1, -1], "label": "a"}
_VERIFY_VHS = "verify --suite vhs-energy --cases 1 --dataset DATA"


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
     "'uniformizing-g2': pair ''"),
    ([dict(_ENTRY, label="uniformizing-gx")], _VERIFY_VHS, 2,
     "'uniformizing-gx': expected"),
    ([dict(_ENTRY, label="uniformizing-g02")], _VERIFY_VHS, 2,
     "'uniformizing-g02': expected"),
    ([dict(_ENTRY, label="uniformizing-g2", pair="b"),
      {"ranks": [3], "degrees": [0], "label": "b"}], "hyperhol-degree --dataset DATA",
     2, "'uniformizing-g2' and 'b'"),
    ([_ENTRY], _VERIFY_VHS + " --dataset DATA", 2, "--dataset"),
    ([_ENTRY], "vhs-energy --dataset DATA --dataset DATA", 2, "--dataset"),
])
def test_cli_dataset_input(tmp_path, capsys, entries, command, code, needle):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"entries": entries}), encoding="utf-8")
    argv = [str(path) if arg == "DATA" else arg for arg in command.split()]
    try:
        got = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert needle in err and "Traceback" not in err


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
    "degrees": st.lists(st.integers(-2, 2) | st.sampled_from(["1/2", "1/0", "x"]),
                        max_size=3) | _json,
    "label": st.sampled_from(["a", "b", "uniformizing-g2", "uniformizing-g3"]) | _json,
    "pair": st.sampled_from(["", "a", "b"]) | _json})
_fuzz_dataset = _json | st.fixed_dictionaries(
    {"entries": st.lists(_fuzz_entry, max_size=3) | _json})


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fuzz_config, _fuzz_dataset)
@example({"suites": ["gauge-covariance"], "cases": 1, "rank_bound": 1}, {})
def test_cli_exit_contract_on_arbitrary_json(config, dataset):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.json")
        with open(data, "w", encoding="utf-8") as fh:
            json.dump(dataset, fh)
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
            records = load_records(fh.read(), config.get("out_format", "json"))
        assert (code == 1) == any(not r.passed for r in records)


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
