"""`verify` catches the one-line mutants of the library that it should.

``mutants.json`` holds one row per mutant: the module, the exact old text
(found once in that module) and its replacement, and either the suite that
must fail with the fewest ``--cases`` that catch it (so it passes with one
case less), or, with ``suite`` null, a note saying why the mutant is inert
or still escapes ``verify``.  An inert
mutant must leave the report of ``verify --seed 42 --cases 25`` byte for byte
as the unmutated package writes it.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twistorsec"
MUTANTS = json.loads(Path(__file__).with_name("mutants.json").read_text(encoding="utf-8"))


@pytest.fixture
def sweep(monkeypatch):
    """``tools/operator_sweep.py``, whose ``run_all`` runs the mutants."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import operator_sweep
    return operator_sweep


def mutated(row):
    """The source of row's module with its mutation applied."""
    text = (PACKAGE / f"{row['module']}.py").read_text(encoding="utf-8")
    assert text.count(row["old"]) == 1, row["old"]
    return text.replace(row["old"], row["new"])


def test_every_frozen_constant_has_a_live_row():
    """Each name assigned in ``constants.py`` begins the old text of a live
    row, so changing its value fails ``verify``."""
    tree = ast.parse((PACKAGE / "constants.py").read_text(encoding="utf-8"))
    names = [target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets]
    pinned = [row["old"] for row in MUTANTS
              if row["module"] == "constants" and row["suite"] is not None]
    assert names
    assert [name for name in names
            if not any(old.startswith(f"{name} = ") for old in pinned)] == []


def test_sweep_sites_are_its_operators_in_source_order(sweep):
    """Each site the operator sweep finds holds its operator, no site comes
    twice or out of source order, and each mutant still parses."""
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found = sweep.sites(text)
        offsets = [at for at, _, _ in found]
        assert offsets == sorted(set(offsets)), path.name
        for at, old, new in found:
            assert text[at:at + len(old)] == old, (path.name, at, old)
            ast.parse(sweep.mutate(text, at, old, new))
        total += len(found)
    assert total


def test_every_live_mutant_fails_its_suite(sweep):
    jobs = []
    for row in MUTANTS:
        text = mutated(row)  # the old text is found once, live row or not
        if row["suite"] is None:
            assert row["note"].startswith(("inert: ", "open: ")), row
            continue
        argv = ("verify", "--seed", "42", "--suite", row["suite"], "--cases")
        jobs.append((row["module"], text, (*argv, str(row["cases"]))))
        if row["cases"]:  # the fewest: one case less lets the mutant through
            jobs.append((row["module"], text, (*argv, str(row["cases"] - 1))))
    results = iter(sweep.run_all(jobs))
    for row in MUTANTS:
        if row["suite"] is None:
            continue
        code, stderr, _ = next(results)
        assert code == 1, (row["note"], stderr)
        assert row["suite"] in stderr.split(), (row["note"], stderr)
        if row["cases"]:
            code, _, _ = next(results)
            assert code == 0, (row["note"], "caught with fewer cases")


def test_every_inert_mutant_keeps_the_report(sweep):
    inert = [row for row in MUTANTS if row["note"].startswith("inert: ")]
    argv = ("verify", "--seed", "42", "--cases", "25")
    (code, stderr, want), *results = sweep.run_all(
        [(None, None, argv)] + [(row["module"], mutated(row), argv) for row in inert])
    assert code == 0, stderr
    for row, (code, stderr, got) in zip(inert, results, strict=True):
        assert row["suite"] is None, row
        assert code == 0, (row["note"], stderr)
        assert got == want, row["note"]
