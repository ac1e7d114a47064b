"""Start-up of the command line: importing ``twistorsec.cli`` stays cheap.

Every `twistorsec` run pays for its imports before it checks anything.  The
record types are plain slotted classes and the shipped dataset is read by its
path, so the CLI needs neither ``dataclasses`` (which imports ``inspect``) nor
``importlib.resources`` (which imports ``pathlib``).  The import runs in a
fresh ``python -S``, so that no ``site`` hook loads these modules first.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = ("dataclasses", "inspect", "importlib.resources", "pathlib")


def _importers(importtime: str) -> dict:
    """The module that first imported each module, from ``-X importtime`` output.

    A line is written when the import of its module ends, indented by the
    depth of the import, so the importer is the next line indented less.
    """
    entries = []
    for line in importtime.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            field = line.rsplit("|", 1)[1]
            name = field.lstrip()
            entries.append((len(field) - len(name), name))
    importers = {}
    for index, (depth, name) in enumerate(entries):
        importers[name] = next((n for d, n in entries[index + 1:] if d < depth),
                               "the interpreter")
    return importers


def test_cli_imports_neither_dataclasses_nor_importlib_resources():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import twistorsec.cli; "
            f"print(' '.join(m for m in {AVOIDED!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=60, check=True)
    importers = _importers(proc.stderr)
    loaded = proc.stdout.split()
    assert {name: importers.get(name, "?") for name in loaded} == {}
