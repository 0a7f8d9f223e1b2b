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

``linalg`` eliminates over the Gaussian integers only: it imports no
``fractions``, and ``_eliminate`` never names ``GaussRat``.
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
# beside it, and the kernel never touches a Gaussian rational
def field_arithmetic_uses(path, kernel="_eliminate"):
    """(line, what) for each import of ``fractions`` and each use of the
    name GaussRat inside the function ``kernel``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import fractions") for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            found.append((node.lineno, "import fractions"))
        elif isinstance(node, ast.FunctionDef) and node.name == kernel:
            found += [(sub.lineno, "GaussRat") for sub in ast.walk(node)
                      if isinstance(sub, ast.Name) and sub.id == "GaussRat"
                      or isinstance(sub, ast.Attribute) and sub.attr == "GaussRat"]
    return found


def test_linalg_has_no_fraction_path():
    path = os.path.join(ROOT, "src", "quantact", "linalg.py")
    uses = field_arithmetic_uses(path)
    assert not uses, "field arithmetic in linalg: %s" % ", ".join(
        "line %d %s" % use for use in uses)


def test_the_fraction_guard_sees_imports_and_the_kernel(tmp_path):
    path = tmp_path / "fractional.py"
    path.write_text("import fractions\n"
                    "from fractions import Fraction\n"
                    "from . import expr\n"
                    "def _eliminate(rows):\n"
                    "    return GaussRat(1), expr.GaussRat\n"
                    "def solve(rows):\n"
                    "    return GaussRat(1)\n")
    assert sorted(field_arithmetic_uses(str(path))) == [
        (1, "import fractions"), (2, "import fractions"), (5, "GaussRat"), (5, "GaussRat")]
