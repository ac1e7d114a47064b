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
only ``test_*.py`` files under ``tests`` and ``perfbench``.
"""

from __future__ import annotations

import ast
import compileall
import os
import py_compile
import shutil
import subprocess
import queue
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twistorsec"
VERIFY = ("verify", "--seed", "42", "--cases", "5")
JOBS = 2
TIMEOUT = 120  # seconds; the unmutated run takes well under one

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
    pycs checked against the source's hash, so that only the mutated module
    is compiled again (in memory: nothing is written back)."""

    def __init__(self, root: Path):
        self.root = root
        shutil.copytree(PACKAGE, root / "twistorsec",
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert compileall.compile_dir(
            root / "twistorsec", quiet=1,
            invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
        self.env = {**os.environ, "PYTHONPATH": str(root),
                    "PYTHONDONTWRITEBYTECODE": "1"}

    def run(self, module=None, text=None):
        """(exit code, report bytes) of verify, with module's source as text."""
        path = self.root / "twistorsec" / f"{module}.py"
        original = path.read_text(encoding="utf-8") if module else None
        report = self.root / "report.json"
        report.unlink(missing_ok=True)
        try:
            if module:
                path.write_text(text, encoding="utf-8")
            proc = subprocess.run(  # -S: the package needs nothing from site
                [sys.executable, "-S", "-m", "twistorsec.cli", *VERIFY,
                 "--out", str(report)],
                env=self.env, capture_output=True, timeout=TIMEOUT)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if module:
                path.write_text(original, encoding="utf-8")
        return code, report.read_bytes() if report.exists() else None


def main() -> int:
    mutants = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for at, old, new in sites(text):
            line = text.count("\n", 0, at) + 1
            mutants.append((path.stem, line, old, new, mutate(text, at, old, new)))

    with tempfile.TemporaryDirectory(prefix="operator-sweep-") as tmp:
        idle = queue.SimpleQueue()
        for index in range(JOBS):
            idle.put(Worker(Path(tmp) / f"w{index}"))

        def run(module=None, text=None):
            worker = idle.get()
            try:
                return worker.run(module, text)
            finally:
                idle.put(worker)

        code, reference = run()
        if code != 0:
            print(f"the unmutated package exits {code}", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(lambda m: run(m[0], m[4]), mutants))

    fail = [m for m, (code, _) in zip(mutants, results) if code != 0]
    changed = [m for m, (code, report) in zip(mutants, results)
               if code == 0 and report != reference]
    same = [m for m, (code, report) in zip(mutants, results)
            if code == 0 and report == reference]
    print(f"mutants {len(mutants)}")
    print(f"fail {len(fail)}")
    print(f"changed report {len(changed)}")
    print(f"same report {len(same)}")
    for module, line, old, new, _ in same:
        print(f"  {module}.py:{line}: {old!r} -> {new!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
