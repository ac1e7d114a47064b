"""`verify` catches the one-line mutants of the library that it should.

``mutants.json`` holds one row per mutant: the module, the exact old text
(found once in that module) and its replacement, and either the suite that
must fail with the fewest ``--cases`` that catch it, or, with ``suite`` null,
a note saying why the mutant is inert or still escapes ``verify``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistorsec"
MUTANTS = json.loads(Path(__file__).with_name("mutants.json").read_text(encoding="utf-8"))


def test_every_live_mutant_fails_its_suite(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "twistorsec",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # No bytecode: two mutants of one module may share a size and a second.
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    for row in MUTANTS:
        path = tmp_path / "twistorsec" / f"{row['module']}.py"
        text = path.read_text(encoding="utf-8")
        assert text.count(row["old"]) == 1, row["old"]
        if row["suite"] is None:
            assert row["note"].startswith(("inert: ", "open: ")), row
            continue
        path.write_text(text.replace(row["old"], row["new"]), encoding="utf-8")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "twistorsec.cli", "verify", "--seed", "42",
                 "--suite", row["suite"], "--cases", str(row["cases"]),
                 "--out", str(tmp_path / "report.json")],
                env=env, capture_output=True, text=True, timeout=60)
        finally:
            path.write_text(text, encoding="utf-8")
        assert proc.returncode == 1, (row["note"], proc.stderr)
        assert row["suite"] in proc.stderr.split(), (row["note"], proc.stderr)
