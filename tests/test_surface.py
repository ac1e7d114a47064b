"""The package surface: every public top-level name of ``src/twistorsec`` is
used by the program or the benchmark, and every function and method of the
package is entered by some command.

The name check reads the source files with ``ast`` and imports nothing.  A
name counts as used when some module of ``src/twistorsec`` or ``perfbench``,
its own included, loads it, imports it, or reads it as an attribute; its
definition does not count.  The reach check runs the commands under
``sys.setprofile``, so it also sees class members, which a name check keeps
alive whenever any object has an attribute of the same name.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

from twistorsec import cli
from twistorsec.report import FORMATS

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "twistorsec").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if not n.startswith("_"))


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_public_name_is_used_or_a_named_paper_statement():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in PROGRAM + BENCHMARK}
    used = set()
    for tree in trees.values():
        used.update(_used_names(tree))
    unused = {}
    for path in PROGRAM:
        names = set(_public_definitions(trees[path])) - used
        if names:
            unused[path.stem] = names
    assert unused == {}


def test_package_root_holds_only_the_version():
    tree = ast.parse((ROOT / "src" / "twistorsec" / "__init__.py").read_text(
        encoding="utf-8"))
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(version, ast.Assign)
    assert [t.id for t in version.targets] == ["__version__"]


#: Functions and methods that no command enters, each with the reason it stays;
#: every key must name a function that exists.
NOT_REACHED = {
    "scalars.QQi.__hash__": "a value type hashes like its value",
    "torus_forms.FourierScalar.__hash__": "a value type hashes like its value",
    "projline._Infinity.__repr__": "assertion messages print it",
    "records.Record.__hash__": "a value type hashes like its value",
    "records.Record.__setattr__": "the guard that keeps a record immutable",
    "vhs.VhsBlockData.to_json": "writes the dataset documents the program reads",
    "lambda_lifts.LambdaLift.to_json": "writes the lift documents the program reads",
}


def _functions(module: str, tree):
    """(first line, qualified name) of every function and method of a module,
    nested ones included.  A decorated function's code starts at its first
    decorator."""
    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.FunctionDef):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield first, prefix + node.name
                yield from walk(node.body, f"{prefix}{node.name}.<locals>.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
    return walk(tree.body, f"{module}.")


def _commands(tmp_path):
    """Every command and output format, a config and a dataset file read from
    disk, and a missing dataset; with the exit code each must give."""
    config, dataset = tmp_path / "config.json", tmp_path / "data.json"
    config.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    dataset.write_text((ROOT / "src" / "twistorsec" / "data" / "vhs_samples.json")
                       .read_text(encoding="utf-8"), encoding="utf-8")
    commands = [
        (["verify", "--cases", "2", "--out", str(tmp_path / "report.json")], 0),
        (["verify", "--cases", "2", "--format", "csv", "--config", str(config),
          "--dataset", str(dataset)], 0),
        (["vhs-energy", "--dataset", str(tmp_path / "missing.json")], 2),
    ]
    commands += [([name, "--format", out_format], 0) for out_format in FORMATS
                 for name in ("vhs-energy", "hyperhol-degree", "flat-demo")]
    return commands


def test_every_function_is_reached(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    oracle = importlib.import_module("oracle")
    commands = _commands(tmp_path)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv, _ in commands]
        checked, problems = oracle.check_pairings(seed=0, probe=0)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, code in commands]
    assert checked and not problems

    reached, unreached = set(), set()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):  # as imported
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for first, name in _functions(path.stem, tree):
            hit = (str(path), first) in entered
            (reached if hit else unreached).add(name)
    assert sorted(unreached - set(NOT_REACHED)) == []
    assert sorted(reached & set(NOT_REACHED)) == []
    # An exception goes with the code it excused.
    assert sorted(set(NOT_REACHED) - reached - unreached) == []
