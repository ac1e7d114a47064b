"""The package surface: every public top-level name of ``src/twistorsec`` is
used by the program or the benchmark, or is a named paper statement.

The check reads the source files with ``ast`` and imports nothing.  A name
counts as used when some module of ``src/twistorsec`` or ``perfbench``,
its own included, loads it, imports it, or reads it as an attribute; its
definition does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src" / "twistorsec").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

#: Public names that no program path reaches, kept because each states part
#: of the paper and a test in ``tests/`` checks it, or because it is a frozen
#: constant whose derivation lives in ``tests/``.
PAPER_STATEMENTS = {
    "flat_model": {"twistor_line", "moment_map", "residue_form_phi",
                   "local_biholo_jacobian", "twist"},
    "lambda_lifts": {"real_involution_chart"},
    "projline": {"h_pairing", "sigma_value"},
    "vhs": {"bb_slice_shape", "g_lambda_ad_weight"},
    "constants": {"REALITY_SIGN", "XI_SCALAR_DLAMBDA"},
}


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
    assert unused == PAPER_STATEMENTS


def test_package_root_holds_only_the_version():
    tree = ast.parse((ROOT / "src" / "twistorsec" / "__init__.py").read_text(
        encoding="utf-8"))
    docstring, version = tree.body
    assert isinstance(docstring, ast.Expr) and isinstance(version, ast.Assign)
    assert [t.id for t in version.targets] == ["__version__"]
