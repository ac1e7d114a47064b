"""Operator sweep: how many one-token mutants of the package `verify` notices.

Every site of these operators in ``src/twistorsec/*.py`` becomes one mutant:

- ``+`` and ``-`` between two operands swap;
- ``==`` and ``!=`` swap, as do ``<`` and ``<=``, and ``>`` and ``>=``;
- ``+=`` and ``-=`` swap;
- a unary minus is dropped.

Sites are taken module by module in file-name order, and in source order
within a module.  Each mutant replaces one token of a copy of the package
and runs ``verify --seed 42 --cases 5`` on it, at most two at a time.  A
mutant is counted as

- fail: ``verify`` exits nonzero (or runs past the timeout);
- changed report: it exits 0 with a report that differs from the unmutated
  package's;
- same report: it exits 0 with the same report bytes.

The last kind are the survivors that only a tier-1 test can catch.  Run it
from the repository root:

    python3 tools/operator_sweep.py

It prints the four counts, then one line per same-report survivor, and takes
about 30 s on two cores.  It is not a test: tier-1 collects
only ``test_*.py`` files under ``tests`` and ``perfbench``.  Its runner,
``run_all``, also runs the hand-written mutants of ``tests/test_mutants.py``.
"""

from __future__ import annotations

import ast
import compileall
import os
import py_compile
import shutil
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistorsec"
VERIFY = ("verify", "--seed", "42", "--cases", "5")
JOBS = 2
TIMEOUT = 120  # seconds per verify; an unmutated one takes well under one

SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
         ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
         ast.Gt: (">", ">="), ast.GtE: (">=", ">")}


def sites(text: str):
    """(offset, old, new) of every mutation site of a module, in source order;
    the offset counts characters, and new is "" for a dropped minus."""
    starts = [0]
    for row in text.splitlines(keepends=True):
        starts.append(starts[-1] + len(row))

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        row = text[starts[lineno - 1]:starts[lineno]]
        return starts[lineno - 1] + len(row.encode("utf-8")[:col].decode("utf-8"))

    def between(left, right, old):
        """The offset of the operator between two operands: the text there
        holds only it, brackets, blanks and comments."""
        lo = offset(left.end_lineno, left.end_col_offset)
        hi = offset(right.lineno, right.col_offset)
        code = "\n".join(row.split("#")[0] for row in text[lo:hi].split("\n"))
        assert code.count(old) == 1, (left.lineno, text[lo:hi])
        return lo + code.index(old)

    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            found.append((between(node.left, node.right, old), old, new))
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            old, new = (op + "=" for op in SWAPS[type(node.op)])
            found.append((between(node.target, node.value, old), old, new))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((offset(node.lineno, node.col_offset), "-", ""))
        elif isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in SWAPS:
                    old, new = SWAPS[type(op)]
                    found.append((between(left, right, old), old, new))
                left = right
    return sorted(found)


def mutate(text: str, at: int, old: str, new: str) -> str:
    assert text[at:at + len(old)] == old, (at, old)
    return text[:at] + new + text[at + len(old):]


class Worker:
    """A copy of the package in a directory of its own, compiled once with
    pycs checked against the source's hash (two mutants of one module may
    share a size and a second), so that only the mutated module is compiled
    again (in memory: nothing is written back)."""

    def __init__(self, root: Path):
        self.root = root
        shutil.copytree(PACKAGE, root / "twistorsec",
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert compileall.compile_dir(
            root / "twistorsec", quiet=1,
            invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
        self.env = {**os.environ, "PYTHONPATH": str(root),
                    "PYTHONDONTWRITEBYTECODE": "1"}

    def run(self, module, text, argv):
        """(exit code or "timeout", stderr, report bytes or None) of
        ``twistorsec.cli *argv --out REPORT``, with module's source replaced
        by text for the run; module None runs the package unmutated."""
        path = self.root / "twistorsec" / f"{module}.py"
        report = self.root / "report.json"
        report.unlink(missing_ok=True)
        if module:
            path.write_text(text, encoding="utf-8")
        try:
            proc = subprocess.run(  # -S: the package needs nothing from site
                [sys.executable, "-S", "-m", "twistorsec.cli", *argv,
                 "--out", str(report)],
                env=self.env, capture_output=True, text=True, timeout=TIMEOUT)
            code, stderr = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, stderr = "timeout", ""
        finally:
            if module:
                shutil.copyfile(PACKAGE / path.name, path)
        return code, stderr, report.read_bytes() if report.exists() else None


def run_all(jobs):
    """``Worker.run(*job)`` of each (module, text, argv) job, in job order,
    with one worker in each of JOBS threads."""
    workers = threading.local()
    with tempfile.TemporaryDirectory(prefix="operator-sweep-") as tmp:
        def start():
            workers.worker = Worker(Path(tempfile.mkdtemp(dir=tmp)))

        with ThreadPoolExecutor(max_workers=JOBS, initializer=start) as pool:
            return list(pool.map(lambda job: workers.worker.run(*job), jobs))


def main() -> int:
    mutants = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for at, old, new in sites(text):
            line = text.count("\n", 0, at) + 1
            mutants.append((path.stem, line, old, new, mutate(text, at, old, new)))

    (code, _, reference), *results = run_all(
        [(None, None, VERIFY)] + [(m[0], m[4], VERIFY) for m in mutants])
    if code != 0:
        print(f"the unmutated package exits {code}", file=sys.stderr)
        return 2
    kinds = ["fail" if code != 0 else "same report" if report == reference
             else "changed report" for code, _, report in results]
    print(f"mutants {len(mutants)}")
    for kind in ("fail", "changed report", "same report"):
        print(f"{kind} {kinds.count(kind)}")
    for (module, line, old, new, _), kind in zip(mutants, kinds):
        if kind == "same report":
            print(f"  {module}.py:{line}: {old!r} -> {new!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
