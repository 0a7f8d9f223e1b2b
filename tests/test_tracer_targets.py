"""Every call the benchmark tracer wraps still exists in quantact.

``perfbench/tracer.py`` rebinds each (module, attribute) of its ``TARGETS``
list when a run is traced (``perfbench/run.py --trace 1``), so deleting or
renaming one of those names breaks traced runs.  Class attributes are looked
up in the class's own ``__dict__``, as ``Tracer.install`` does.  Its hooks
read the results and arguments of some calls, so those shapes are pinned too.
"""

import importlib
import importlib.util
import os

from quantact import cli, opcalc
from quantact.actions import sign_flip
from quantact.cli import SessionConfig
from quantact.expr import Expr
from quantact.symbols import FormalSymbol, PolyXi

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tracer_module():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = tracer_module().TARGETS
    missing = []
    for layer, path, _key, _keep in targets:
        module = importlib.import_module("quantact." + layer)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            found = isinstance(owner, type) and attr in owner.__dict__
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append("%s.%s" % (layer, path))
    assert targets and not missing, "tracer targets not found: %s" % ", ".join(missing)


def test_tracer_hooks_count_compose_terms_and_zero_star_operands():
    # the hooks read compose's result.terms and star's args[0] and args[2]
    x = Expr.var("x")
    phi = sign_flip().diffeos[1]
    p = FormalSymbol(1, 1, [PolyXi.constant(1, x), PolyXi(1, {(1,): x})])
    zero = FormalSymbol.zero(1, 1)
    tracer = tracer_module().Tracer()
    tracer.install()
    try:
        composite = opcalc.compose(opcalc.FormalOperator(p, phi),
                                   opcalc.FormalOperator(p, phi))
        opcalc.star(p, phi, zero, phi)
        opcalc.star(p, phi, p, phi)
    finally:
        tracer.uninstall()
    rec = tracer.rec
    assert rec.calls["opcalc.compose"] == 1 and rec.calls["opcalc.star"] == 2
    terms_out = sum(len(table) for table in composite.terms)
    assert terms_out > 0 and rec.extra["opcalc.compose_terms_out"] == terms_out
    assert rec.extra["opcalc.star_zero_operand_calls"] == 1


def test_traced_solve_sees_the_solver_and_every_basis_decomposition(tmp_path):
    # the order-1 solve eliminates one matrix through linalg.solve and
    # decomposes every star-term coefficient through CoefficientBasis.decompose
    cfg = SessionConfig.load(os.path.join(ROOT, "configs", "solve_sign_flip.cfg"),
                             out=str(tmp_path))
    tracer = tracer_module().Tracer()
    tracer.install()
    try:
        status, _ = cli.run(cfg)
    finally:
        tracer.uninstall()
    rec = tracer.rec
    assert status == 0
    assert rec.calls["linalg.solve"] == 1
    assert rec.extra["dga.matrix_rows"] > 0
    # the closure report alone decomposes |basis| * |G| = 3 * 2 pullbacks
    assert rec.calls["dga.basis_decompose"] > 6
