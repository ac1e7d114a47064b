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
import compileall
import json
import os
import py_compile
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistorsec"
MUTANTS = json.loads(Path(__file__).with_name("mutants.json").read_text(encoding="utf-8"))


@pytest.fixture
def mutate(tmp_path):
    """Run ``verify`` on a copy of the package with one row's mutation
    applied (or none), returning the process and the report's bytes."""
    shutil.copytree(PACKAGE, tmp_path / "twistorsec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # Compile the copy once, with pycs checked against the source's hash (two
    # mutants of one module may share a size and a second): a mutated module
    # fails the check and is compiled in memory, as nothing is written back.
    assert compileall.compile_dir(
        tmp_path / "twistorsec", quiet=1,
        invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    report = tmp_path / "report.json"

    def run(row, *args):
        if row is not None:
            path = tmp_path / "twistorsec" / f"{row['module']}.py"
            text = path.read_text(encoding="utf-8")
            assert text.count(row["old"]) == 1, row["old"]
            path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")
        report.unlink(missing_ok=True)
        try:
            proc = subprocess.run(  # -S: the package needs nothing from site
                [sys.executable, "-S", "-m", "twistorsec.cli", "verify", "--seed", "42",
                 *args, "--out", str(report)],
                env=env, capture_output=True, text=True, timeout=60)
        finally:
            if row is not None:
                path.write_text(text, encoding="utf-8")
        return proc, report.read_bytes() if report.exists() else None

    return run


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


def test_every_live_mutant_fails_its_suite(mutate):
    for row in MUTANTS:
        if row["suite"] is None:
            assert row["note"].startswith(("inert: ", "open: ")), row
            text = (PACKAGE / f"{row['module']}.py").read_text(encoding="utf-8")
            assert text.count(row["old"]) == 1, row["old"]
            continue
        proc, _ = mutate(row, "--suite", row["suite"], "--cases", str(row["cases"]))
        assert proc.returncode == 1, (row["note"], proc.stderr)
        assert row["suite"] in proc.stderr.split(), (row["note"], proc.stderr)
        if row["cases"]:  # the fewest: one case less lets the mutant through
            proc, _ = mutate(row, "--suite", row["suite"], "--cases", str(row["cases"] - 1))
            assert proc.returncode == 0, (row["note"], "caught with fewer cases")


def test_every_inert_mutant_keeps_the_report(mutate):
    proc, want = mutate(None, "--cases", "25")
    assert proc.returncode == 0, proc.stderr
    for row in MUTANTS:
        if row["note"].startswith("inert: "):
            assert row["suite"] is None, row
            proc, got = mutate(row, "--cases", "25")
            assert proc.returncode == 0, (row["note"], proc.stderr)
            assert got == want, row["note"]
