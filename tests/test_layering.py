"""Layering rules checked on the source with ``ast``.

Only quantact.expr knows the expression format.  Tree nodes
(``Expr.node``), the monomial generator keys that ``Poly._from_key``
decodes, and ``Poly`` itself are private to ``quantact/expr.py``; every
other module evaluates, substitutes and walks expressions through
``Expr``'s methods (``Expr.fold`` among them).

The command line interface applies grid plans (``numfio.phase_system_plan``)
and never the per-call grid operators, which classify their map anew on
every call.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def format_uses(path):
    """(line, what) for each read of .node, call of _from_key or import of Poly."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("node", "_from_key", "Poly"):
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "import Poly") for a in node.names if a.name == "Poly"]
    return found


def test_only_expr_reads_the_expression_format():
    modules = glob.glob(os.path.join(ROOT, "src", "quantact", "*.py"))
    assert any(m.endswith("expr.py") for m in modules)
    leaks = ["%s:%d %s" % (os.path.basename(m), line, what)
             for m in sorted(modules) if not m.endswith(os.sep + "expr.py")
             for line, what in format_uses(m)]
    assert not leaks, "expression format used outside expr.py: %s" % ", ".join(leaks)


def test_the_guard_sees_each_kind_of_use(tmp_path):
    path = tmp_path / "leaky.py"
    path.write_text("from .expr import Poly\n"
                    "def f(e):\n"
                    "    return e.node[0], Poly._from_key(())\n")
    assert sorted(what for _, what in format_uses(str(path))) == [
        "._from_key", ".node", "import Poly"]


# verify-numeric applies plans built once per group element; an operator
# that classifies its map on every call must not come back into the CLI
PER_CALL_OPERATORS = ("phase_system_apply", "fio_apply", "kn_apply", "grid_pullback")


def per_call_operator_uses(path):
    """(line, name) for each import or attribute read of PER_CALL_OPERATORS."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in PER_CALL_OPERATORS]
        elif isinstance(node, ast.Attribute) and node.attr in PER_CALL_OPERATORS:
            found.append((node.lineno, node.attr))
    return found


def test_cli_applies_plans_only():
    path = os.path.join(ROOT, "src", "quantact", "cli.py")
    uses = per_call_operator_uses(path)
    assert not uses, "cli.py uses per-call grid operators: %s" % ", ".join(
        "line %d %s" % use for use in uses)


def test_the_plan_guard_sees_imports_and_attributes(tmp_path):
    path = tmp_path / "per_call.py"
    path.write_text("from .numfio import WaveGrid, kn_apply\n"
                    "from . import numfio\n"
                    "def f(grid, phi, psi):\n"
                    "    return numfio.grid_pullback(grid, phi, psi)\n")
    assert sorted(name for _, name in per_call_operator_uses(str(path))) == [
        "grid_pullback", "kn_apply"]
