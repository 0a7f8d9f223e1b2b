"""Layering rules checked on the source with ``ast``.

Only quantact.expr knows the expression format.  Tree nodes
(``Expr.node``), monomials and ``Poly`` itself are private to
``quantact/expr.py``; every other module evaluates, substitutes and walks
expressions through ``Expr``'s methods (``Expr.fold`` among them) and
``substitution``.  An exp atom holds its argument, so no key decoder
(``_from_key``) exists, and only expr.py keeps monomial images.

A monomial is one packed int with a 32-bit power field per variable name,
paired with its exp argument as (int, Poly) when it holds an exp atom.  The
field offsets come from an append-only registry of names in expr.py, which
holds names only, never a computed result, so every run starts cold.  Other
modules hold monomial keys as opaque dict keys: ``dga.CoefficientBasis``
orders them as first seen, since an int and a pair do not compare.

The command line interface applies grid plans (``numfio.phase_system_plan``)
and never the per-call grid operators, which classify their map anew on
every call.

Coefficient bases decompose through their echelon form: ``linalg`` has no
left inverse and ``dga`` makes no matrix-vector product.

``opcalc`` pulls expressions back only through ``Diffeo.pullback``.

Only ``numfio.pullback_plan`` classifies a pullback: the lattice test and
the shear detection have no other caller.

``opcalc`` keeps no table between calls: a carrier table lives for one
product cochain, so every run starts cold.

Every exact scalar is an (re, im) pair: no module names a scalar class
``GaussRat`` or a ``GR_`` constant, save the empty class ``GaussRat`` that
``perfbench/tracer.py`` looks up.  ``linalg`` eliminates over the Gaussian
integers only: it imports no ``fractions``.  The matrix of d_{P0} is
assembled in Z[i] too: a ``SparseMatrix`` is built from whole columns,
with no per-entry ``add``.

The right factor of d_{P0} is one constant table per (h, alpha):
``dga._slot_maps`` takes no tuples and decomposes no symbol slot, and
``dga._matrix_of_twisted_d`` takes no product of a tuple.

``import quantact`` loads neither ``concurrent.futures`` nor ``logging``:
``numfio``'s worker thread is built on ``threading`` and ``_queue`` alone.

Only ``numfio`` imports numpy at module level, and only ``verify-numeric``
imports ``numfio``, in its body: ``import quantact``, ``import quantact.cli``
and a run of an exact config load neither numpy nor ``numfio``.

``cli`` compares a config's work with its budgets in one function,
``_admit``: no other function compares a ``*_BUDGET`` value or the
``BUDGETS`` table, and ``_check_slot_budget`` stays gone.

Every (module, attribute) in the ``TARGETS`` of ``perfbench/tracer.py``,
read from its source without running it, still names a quantact function
or an attribute of a class's own ``__dict__``, where the tracer rebinds it;
a refactor that moves one breaks ``perfbench/run.py --trace 1``.
"""

import ast
import glob
import importlib
import os
import subprocess
import sys

import pytest

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


# basis coordinates are read off an echelon form: the dense left inverse
# stays gone from linalg, and dga decomposes without matrix-vector products
def name_uses(path, names):
    """(line, name) for each definition, import or attribute read of ``names``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) \
                and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
    return found


def test_left_inverse_stays_gone_from_linalg():
    path = os.path.join(ROOT, "src", "quantact", "linalg.py")
    assert name_uses(path, ("left_inverse",)) == []


def test_dga_makes_no_matrix_vector_products():
    path = os.path.join(ROOT, "src", "quantact", "dga.py")
    assert name_uses(path, ("mul_vector", "left_inverse")) == []


# every exact scalar is an (re, im) pair: no module names a scalar class
# GaussRat or a GR_ constant.  One empty class GaussRat, a docstring alone,
# stays in expr.py for perfbench/tracer.py, which rebinds its __init__
def gaussrat_uses(path):
    """(line, what) for each definition, import, name, attribute or string
    constant GaussRat or GR_*, except an empty class GaussRat."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)

    def banned(name):
        return name == "GaussRat" or name.startswith("GR_")

    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and banned(node.name):
            stub = (isinstance(node, ast.ClassDef) and not node.bases
                    and not node.decorator_list and len(node.body) == 1
                    and ast.get_docstring(node) is not None)
            if not stub:
                found.append((node.lineno, "def " + node.name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if banned(a.name.rpartition(".")[2])]
        elif isinstance(node, ast.Name) and banned(node.id):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and banned(node.attr):
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Constant) and type(node.value) is str and banned(node.value):
            found.append((node.lineno, repr(node.value)))
    return found


def test_src_names_gaussrat_only_in_its_empty_stub():
    modules = sorted(glob.glob(os.path.join(ROOT, "src", "quantact", "*.py")))
    assert any(m.endswith("expr.py") for m in modules)
    uses = ["%s:%d %s" % (os.path.basename(m), line, what)
            for m in modules for line, what in gaussrat_uses(m)]
    assert not uses, "a Gaussian-rational scalar class in src: %s" % ", ".join(uses)


def test_the_gaussrat_guard_sees_every_use_but_the_stub(tmp_path):
    path = tmp_path / "scalar.py"
    path.write_text("from .expr import Expr, GaussRat\n"
                    "import quantact.expr.GR_ONE\n"
                    "class GaussRat:\n"
                    "    'Not a stub: it has a method.'\n"
                    "    def inv(self):\n"
                    "        return GaussRat(1), expr.GR_I\n"
                    "__all__ = ['Expr', 'GaussRat']\n")
    assert sorted(gaussrat_uses(str(path))) == [
        (1, "import GaussRat"), (2, "import quantact.expr.GR_ONE"), (3, "def GaussRat"),
        (6, ".GR_I"), (6, "GaussRat"), (7, "'GaussRat'")]
    path.write_text("class GaussRat:\n"
                    "    'The stub.'\n")
    assert gaussrat_uses(str(path)) == []


# an operator holds its symbol and its map, so no converter between the two
def test_operator_symbol_converters_stay_gone():
    modules = glob.glob(os.path.join(ROOT, "src", "quantact", "*.py"))
    uses = ["%s:%d %s" % (os.path.basename(m), line, name)
            for m in sorted(modules)
            for line, name in name_uses(m, ("to_operator", "to_symbol"))]
    assert modules and not uses, "converters are back: %s" % ", ".join(uses)


# the star kernel pulls back through Diffeo.pullback, which keeps the
# images of monomials on the map; a direct substitution would not
def test_opcalc_pulls_back_through_the_map():
    path = os.path.join(ROOT, "src", "quantact", "opcalc.py")
    assert name_uses(path, ("substitute",)) == []


# an exp atom holds its argument Poly, so there is no key to decode; the
# images of monomials under a map live inside expr.substitution
def test_no_key_decoder_and_no_image_table_outside_expr():
    modules = glob.glob(os.path.join(ROOT, "src", "quantact", "*.py"))
    uses = []
    for m in sorted(modules):
        names = ("_from_key",) if m.endswith(os.sep + "expr.py") else ("_from_key", "_images")
        uses += ["%s:%d %s" % (os.path.basename(m), line, name)
                 for line, name in name_uses(m, names)]
    assert modules and not uses, "expression internals leaked: %s" % ", ".join(uses)


def test_the_image_guard_sees_a_table_and_a_decoder(tmp_path):
    path = tmp_path / "tabled.py"
    path.write_text("class Diffeo:\n"
                    "    def __init__(self):\n"
                    "        self._images = {}\n"
                    "    def pullback(self, gen):\n"
                    "        return Poly._from_key(gen[1]), self._images\n"
                    "_images = {}\n")
    assert sorted(name_uses(str(path), ("_from_key", "_images"))) == [
        (3, "_images"), (5, "_from_key"), (5, "_images"), (6, "_images")]


def test_the_name_guard_sees_each_kind_of_use(tmp_path):
    path = tmp_path / "named.py"
    path.write_text("from .linalg import left_inverse\n"
                    "def mul_vector(m, v):\n"
                    "    return m.mul_vector(v)\n"
                    "class left_inverse:\n"
                    "    pass\n"
                    "mul_vector = None\n")
    assert sorted(name_uses(str(path), ("left_inverse", "mul_vector"))) == [
        (1, "left_inverse"), (2, "mul_vector"), (3, "mul_vector"),
        (4, "left_inverse"), (6, "mul_vector")]


# each solver step has one entry point, the public name the tracer wraps:
# linalg.solve returns the kernel too, and CoefficientBasis.decompose is the
# one basis decomposition
def test_solver_twins_stay_gone():
    modules = glob.glob(os.path.join(ROOT, "src", "quantact", "*.py"))
    twins = ("solve_with_kernel", "_reduce", "_solution", "_coordinates")
    uses = ["%s:%d %s" % (os.path.basename(m), line, name)
            for m in sorted(modules) for line, name in name_uses(m, twins)]
    assert modules and not uses, "solver twins are back: %s" % ", ".join(uses)


# one matrix assembler for the differential: cohomology and mc-solve take the
# slot maps and the matrices of d_{P0} from dga's one builder
def callers(path, name):
    """(innermost enclosing function, line) of each call of ``name``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == name) or \
                        (isinstance(f, ast.Attribute) and f.attr == name):
                    found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_builder_assembles_the_twisted_differential():
    modules = sorted(glob.glob(os.path.join(ROOT, "src", "quantact", "*.py")))
    for name in ("_slot_maps", "_matrix_of_twisted_d"):
        calls = [(owner, "%s:%d" % (os.path.basename(m), line))
                 for m in modules for owner, line in callers(m, name)]
        assert [owner for owner, _ in calls] == ["_twisted_d_matrices"], (name, calls)


def test_the_caller_guard_sees_nested_and_module_calls(tmp_path):
    path = tmp_path / "assemblers.py"
    path.write_text("from . import dga\n"
                    "def build(a):\n"
                    "    def inner():\n"
                    "        return dga._slot_maps(a)\n"
                    "    return _slot_maps(a), inner\n"
                    "_slot_maps(None)\n")
    assert sorted(callers(str(path), "_slot_maps")) == [
        ("<module>", 6), ("build", 5), ("inner", 4)]


# pullback_plan is the one classifier of a pullback: it reads exact affine
# data when the map has it and grid values otherwise, so the lattice test
# and the shear detection have no caller besides it
def test_one_classifier_for_pullback_paths():
    modules = sorted(glob.glob(os.path.join(ROOT, "src", "quantact", "*.py")))
    for name in ("_permutation_indices", "_shear_data"):
        calls = [(owner, "%s:%d" % (os.path.basename(m), line))
                 for m in modules for owner, line in callers(m, name)]
        assert [owner for owner, _ in calls] == ["pullback_plan"], (name, calls)


# carrier tables live for one product cochain (dga.star_graded) and reach the
# kernel as an argument: opcalc holds no dict at module or class level and
# memoizes nothing with functools
MEMOIZERS = ("lru_cache", "cache")
DICT_FACTORIES = ("dict", "defaultdict", "OrderedDict")


def _callee(node):
    """The name a call or decorator refers to: f, mod.f, f(...) -> 'f'."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def long_lived_tables(path):
    """(line, what) for each dict bound at module or class level and each
    import, call or decorator of ``functools.lru_cache`` / ``cache``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    scopes = [tree.body] + [n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for body in scopes:
        for node in body:
            value = getattr(node, "value", None) if isinstance(
                node, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call) and _callee(value) in DICT_FACTORIES):
                found.append((node.lineno, "dict"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in MEMOIZERS]
        elif isinstance(node, ast.Call) and _callee(node) in MEMOIZERS:
            found.append((node.lineno, _callee(node)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += [(d.lineno, _callee(d)) for d in node.decorator_list
                      if not isinstance(d, ast.Call) and _callee(d) in MEMOIZERS]
    return found


def test_opcalc_keeps_no_table_between_calls():
    path = os.path.join(ROOT, "src", "quantact", "opcalc.py")
    assert long_lived_tables(path) == []


def test_the_table_guard_sees_dicts_and_memoizers(tmp_path):
    path = tmp_path / "cached.py"
    path.write_text("import functools\n"
                    "from functools import lru_cache\n"
                    "_CARRIERS = {}\n"
                    "_SEEN: dict = dict()\n"
                    "class Kernel:\n"
                    "    tables = {k: None for k in ()}\n"
                    "    @functools.cache\n"
                    "    def star(self):\n"
                    "        local = {}\n"
                    "        return local\n"
                    "@lru_cache(maxsize=None)\n"
                    "def carrier(key):\n"
                    "    return key\n"
                    "product = functools.lru_cache()(carrier)\n")
    assert sorted(long_lived_tables(str(path))) == [
        (2, "lru_cache"), (3, "dict"), (4, "dict"), (6, "dict"), (7, "cache"),
        (11, "lru_cache"), (14, "lru_cache")]


def test_expr_keeps_names_only_between_calls():
    # the registry's name -> field offset table and two constant tables of
    # functions are expr's only module-level dicts, and nothing is memoized
    path = os.path.join(ROOT, "src", "quantact", "expr.py")
    with open(path) as fh:
        lines = fh.read().splitlines()
    found = long_lived_tables(path)
    assert all(what == "dict" for _, what in found)
    assert sorted(lines[line - 1].split("=")[0].strip() for line, _ in found) == [
        "_FUNCS", "_SHIFTS", "_TREE_OPS"]


# linalg eliminates over the Gaussian integers only: no Fraction path sits
# beside it
def field_arithmetic_uses(path):
    """(line, what) for each import of ``fractions``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import fractions") for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append((node.lineno, "import fractions"))
    return found


def test_linalg_has_no_fraction_path():
    path = os.path.join(ROOT, "src", "quantact", "linalg.py")
    uses = field_arithmetic_uses(path)
    assert not uses, "field arithmetic in linalg: %s" % ", ".join(
        "line %d %s" % use for use in uses)


def test_the_fraction_guard_sees_imports(tmp_path):
    path = tmp_path / "fractional.py"
    path.write_text("import fractions\n"
                    "from fractions import Fraction\n"
                    "from . import expr\n")
    assert sorted(field_arithmetic_uses(str(path))) == [
        (1, "import fractions"), (2, "import fractions")]


# the matrix of d_{P0} is built in Z[i]: a SparseMatrix takes whole columns
# of (re, im) pairs, with no per-entry add or set
def entry_arithmetic_uses(path):
    """(line, what) for each method ``add`` or ``set`` of a class SparseMatrix."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "SparseMatrix":
            found += [(f.lineno, "SparseMatrix.%s" % f.name) for f in node.body
                      if isinstance(f, ast.FunctionDef) and f.name in ("add", "set")]
    return found


def test_the_twisted_differential_is_assembled_in_gaussian_integers():
    uses = ["%s:%d %s" % (name, line, what) for name in ("linalg.py", "dga.py")
            for line, what in entry_arithmetic_uses(os.path.join(ROOT, "src", "quantact", name))]
    assert not uses, "per-entry rational arithmetic in the assembler: %s" % ", ".join(uses)


def test_the_entry_guard_sees_methods(tmp_path):
    path = tmp_path / "entrywise.py"
    path.write_text("class SparseMatrix:\n"
                    "    def add(self, i, j, v):\n"
                    "        pass\n"
                    "    def set(self, i, j, v):\n"
                    "        pass\n"
                    "    def nnz(self):\n"
                    "        pass\n")
    assert sorted(entry_arithmetic_uses(str(path))) == [
        (2, "SparseMatrix.add"), (4, "SparseMatrix.set")]


# R[h, alpha] depends on neither g nor j: the slot maps see no tuple and
# decompose no symbol slot, and the assembler never multiplies a tuple out
def per_g_uses(path):
    """(line, what) for a ``tuples`` parameter of _slot_maps, each call of
    _decompose_symbol_slot inside it and each call of ``product`` inside
    _matrix_of_twisted_d."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    banned = {"_slot_maps": "_decompose_symbol_slot", "_matrix_of_twisted_d": "product"}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name not in banned:
            continue
        args = node.args
        found += [(a.lineno, "tuples") for a in args.posonlyargs + args.args + args.kwonlyargs
                  if node.name == "_slot_maps" and a.arg == "tuples"]
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                f = sub.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else ""
                if name == banned[node.name]:
                    found.append((sub.lineno, name))
    return found


def test_the_right_factor_is_free_of_g_and_j():
    uses = per_g_uses(os.path.join(ROOT, "src", "quantact", "dga.py"))
    assert not uses, "per-g or per-j right factor: %s" % ", ".join(
        "line %d %s" % use for use in uses)


def test_the_right_factor_guard_sees_parameters_and_calls(tmp_path):
    path = tmp_path / "per_g.py"
    path.write_text("def _slot_maps(action, p0, n, basis, tuples, normalized=False):\n"
                    "    return dga._decompose_symbol_slot(p0, n, basis), _decompose_symbol_slot()\n"
                    "def _matrix_of_twisted_d(action, maps, cols):\n"
                    "    return action.product(cols), product(cols)\n"
                    "def solve_order(action, basis):\n"
                    "    return _decompose_symbol_slot(basis), action.product(())\n")
    assert sorted(per_g_uses(str(path))) == [
        (1, "tuples"), (2, "_decompose_symbol_slot"), (2, "_decompose_symbol_slot"),
        (4, "product"), (4, "product")]


# one admission step: each task hands its work estimates to cli._admit, the
# one loop that compares them with the budgets
def budget_comparisons(path):
    """(innermost enclosing function, line) of each comparison that reads a
    name or attribute ending in _BUDGET, or the BUDGETS table."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)

    def is_budget(name):
        return name.endswith("_BUDGET") or name == "BUDGETS"

    def reads_budget(node):
        return any(isinstance(sub, ast.Name) and is_budget(sub.id)
                   or isinstance(sub, ast.Attribute) and is_budget(sub.attr)
                   for sub in ast.walk(node))

    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Compare) and reads_budget(child):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_cli_compares_budgets_in_one_function():
    path = os.path.join(ROOT, "src", "quantact", "cli.py")
    assert [owner for owner, _ in budget_comparisons(path)] == ["_admit"]
    assert name_uses(path, ("_check_slot_budget",)) == []


def test_the_budget_guard_sees_names_attributes_and_the_table(tmp_path):
    path = tmp_path / "budgets.py"
    path.write_text("from . import expr\n"
                    "SLOT_BUDGET = 1\n"
                    "def _admit(count, unit):\n"
                    "    return count > BUDGETS[unit]\n"
                    "def task_expand(alphas):\n"
                    "    if alphas > SLOT_BUDGET:\n"
                    "        pass\n"
                    "    def inner(terms):\n"
                    "        return terms <= expr.TERM_BUDGET\n"
                    "    return inner\n"
                    "assert SLOT_BUDGET == 1 and 1 < 2\n")
    assert sorted(budget_comparisons(str(path))) == [
        ("<module>", 11), ("_admit", 4), ("inner", 9), ("task_expand", 6)]


# the worker beside the caller needs no executor: concurrent.futures would
# load logging with it, which costs set-up time and memory on every import
HEAVY_MODULES = ("concurrent.futures", "logging")
# only verify-numeric works on the grid: the exact tasks load no numpy
NUMERIC_MODULES = ("numpy", "quantact.numfio")


def heavy_modules_loaded(module, path, heavy=HEAVY_MODULES, then="", after=""):
    """The ``heavy`` modules a fresh interpreter holds after ``import module``
    with ``path`` first on its path and the statements ``then``; the
    statements ``after`` run next in the same interpreter, and must not raise."""
    code = ("import sys, %s\n%s\nprint(' '.join(m for m in %r if m in sys.modules))\n%s"
            % (module, then, heavy, after))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


def test_importing_quantact_loads_no_executor_and_no_logging():
    assert heavy_modules_loaded("quantact", os.path.join(ROOT, "src")) == []


def test_the_import_guard_sees_an_executor(tmp_path):
    (tmp_path / "pooled.py").write_text("from concurrent.futures import ThreadPoolExecutor\n")
    assert heavy_modules_loaded("pooled", str(tmp_path)) == list(HEAVY_MODULES)


def test_importing_quantact_or_its_cli_loads_no_numpy():
    for module in ("quantact", "quantact.cli"):
        assert heavy_modules_loaded(module, os.path.join(ROOT, "src"), NUMERIC_MODULES) == []


# ZeroCheck is a namedtuple: a dataclass would load inspect, ast, dis and
# tokenize with it, 10-15 ms of every CLI run
INTROSPECTION_MODULES = ("dataclasses", "inspect")


def test_importing_the_cli_loads_no_dataclasses_and_no_inspect():
    assert heavy_modules_loaded("quantact.cli", os.path.join(ROOT, "src"),
                                INTROSPECTION_MODULES) == []


def test_the_introspection_guard_sees_a_dataclass(tmp_path):
    (tmp_path / "record.py").write_text("from dataclasses import dataclass\n")
    assert heavy_modules_loaded("record", str(tmp_path),
                                INTROSPECTION_MODULES) == list(INTROSPECTION_MODULES)


def quiet_main(name, out):
    """A statement that runs ``cli.main`` on ``configs/<name>.cfg``, its
    report written under ``out`` and its standard output dropped, and
    asserts that it exits 0."""
    argv = ["--config", os.path.join(ROOT, "configs", name + ".cfg"), "--out", out]
    return ("import contextlib, io, quantact.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert quantact.cli.main(%r) == 0\n" % argv)


def test_an_exact_config_runs_without_numpy(tmp_path):
    # the grid task still loads numpy itself, later in the same process
    out = str(tmp_path / "out")
    assert heavy_modules_loaded("quantact", os.path.join(ROOT, "src"), NUMERIC_MODULES,
                                then=quiet_main("cohomology_c4", out),
                                after=quiet_main("galilean_numeric", out)) == []
    assert sorted(os.listdir(out)) == ["cohomology.txt", "verify-numeric.txt"]


def test_the_numpy_guard_sees_an_import_and_a_failed_run(tmp_path):
    (tmp_path / "gridded.py").write_text("import numpy.linalg\n")
    assert heavy_modules_loaded("gridded", str(tmp_path), NUMERIC_MODULES) == ["numpy"]
    with pytest.raises(subprocess.CalledProcessError):
        heavy_modules_loaded("gridded", str(tmp_path), NUMERIC_MODULES, after="assert False")


def module_level_numpy_imports(path):
    """Lines of the imports of numpy (or a submodule) that run when ``path``
    is imported: at module level, in a top-level ``if`` or ``try`` too, but
    not in a function or class body."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            names = ([a.name for a in child.names] if isinstance(child, ast.Import) else
                     [child.module or ""] if isinstance(child, ast.ImportFrom)
                     and not child.level else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(child.lineno)
            visit(child)

    visit(tree)
    return found


def test_only_numfio_imports_numpy_at_module_level():
    modules = glob.glob(os.path.join(ROOT, "src", "quantact", "*.py"))
    importers = [os.path.basename(m) for m in modules if module_level_numpy_imports(m)]
    assert importers == ["numfio.py"]


def test_the_numpy_import_guard_sees_module_level_imports_only(tmp_path):
    path = tmp_path / "imports.py"
    path.write_text("import os, numpy.fft\n"
                    "from numpy import errstate\n"
                    "try:\n"
                    "    import numpy as np\n"
                    "except ImportError:\n"
                    "    np = None\n"
                    "from .numpy import shadow\n"
                    "def task():\n"
                    "    import numpy as np\n"
                    "class Grid:\n"
                    "    import numpy\n"
                    "import numpyro\n")
    assert module_level_numpy_imports(str(path)) == [1, 2, 4]


def tracer_targets(path):
    """The (module, attribute path) of each entry of the ``TARGETS`` list
    assigned at the top level of ``path``, read with ``ast``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    return []


def unresolved_targets(targets):
    """The targets quantact does not define as the tracer looks them up: a
    module-level callable, or an attribute in a class's own ``__dict__``."""
    missing = []
    for layer, path in targets:
        try:
            module = importlib.import_module("quantact." + layer)
        except ImportError:
            module = None
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else None
        if not (isinstance(owner, type) and attr in owner.__dict__ if owner_name
                else callable(getattr(module, attr, None))):
            missing.append("%s.%s" % (layer, path))
    return missing


def test_every_tracer_target_resolves_on_quantact():
    targets = tracer_targets(os.path.join(ROOT, "perfbench", "tracer.py"))
    assert ("symbols", "FormalSymbol.add") in targets and ("dga", "star_graded") in targets
    assert unresolved_targets(targets) == []


def test_the_tracer_guard_sees_each_kind_of_miss(tmp_path):
    path = tmp_path / "tracer.py"
    path.write_text("LAYERS = ('dga',)\n"
                    "TARGETS = [\n"
                    "    ('dga', 'd', 'dga.d', True),\n"
                    "    ('symbols', 'FormalSymbol.add', 'symbols.arith', False),\n"
                    "    ('symbols', 'FormalSymbol.dim', 'symbols.dim', False),\n"
                    "    ('symbols', 'PolyXi.add', 'symbols.arith', False),\n"
                    "    ('opcalc', '_add_into', 'opcalc.add', True),\n"
                    "    ('expr', 'Nothing.mul', 'expr.mul', False),\n"
                    "    ('nosuch', 'run', 'nosuch.run', True),\n"
                    "]\n")
    targets = tracer_targets(str(path))
    assert targets[:2] == [("dga", "d"), ("symbols", "FormalSymbol.add")] and len(targets) == 7
    # a slot of __slots__ sits in the class __dict__ too, as the tracer sees it
    assert unresolved_targets(targets) == ["symbols.PolyXi.add", "opcalc._add_into",
                                           "expr.Nothing.mul", "nosuch.run"]
