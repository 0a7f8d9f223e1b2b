"""Layer tracing from outside the package.

``Tracer.install()`` rebinds quantact's public functions and methods to
timing wrappers.  A function imported by name into several modules is
rebound in every module that holds it, because that is where the name is
looked up at call time (``dga.star``, ``opcalc.compose_diffeo``,
``cli.phase_system_apply``, ...).  ``Tracer.uninstall()`` restores the
originals.

Every wrapped call is a span with a name, a start, an end and a parent.  A
layer's self time is its spans' time minus the time of their child spans.
Spans at layer boundaries are kept in memory and written out by
``write_spans``; the kernel calls under the star product (``Poly.mul``,
``Expr.substitute``, ``Expr.diff``, ``is_zero``, symbol arithmetic,
``eval_expr``) are too many to keep, so they are only counted and timed.
``GaussRat`` constructions are only counted.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "expr", "symbols", "actions", "opcalc", "dga", "linalg",
          "numfio")

# (layer = module, attribute path, metric key, keep spans): the public calls
# the four workloads reach
TARGETS = [
    ("cli", "SessionConfig.load", "cli.load", True),
    ("cli", "run", "cli.run", True),
    ("expr", "Expr.substitute", "expr.substitute", False),
    ("expr", "Expr.diff", "expr.diff", False),
    ("expr", "Poly.mul", "expr.poly_mul", False),
    ("expr", "is_zero", "expr.is_zero", False),
    ("symbols", "FormalSymbol.add", "symbols.arith", False),
    ("symbols", "FormalSymbol.sub", "symbols.arith", False),
    ("symbols", "FormalSymbol.neg", "symbols.arith", False),
    ("symbols", "FormalSymbol.scale", "symbols.arith", False),
    ("actions", "compose_diffeo", "actions.compose_diffeo", True),
    ("actions", "Diffeo.pullback", "actions.pullback", True),
    ("opcalc", "star", "opcalc.star", True),
    ("opcalc", "compose", "opcalc.compose", True),
    ("dga", "d", "dga.d", True),
    ("dga", "star_graded", "dga.star_graded", True),
    ("dga", "twisted_d", "dga.twisted_d", True),
    ("dga", "cochain_zero_report", "dga.zero_report", True),
    ("dga", "trivial_system", "dga.trivial_system", True),
    ("dga", "solve_order", "dga.solve_order", True),
    ("dga", "cohomology_dims", "dga.cohomology_dims", True),
    ("dga", "CoefficientBasis.monomials", "dga.basis_new", True),
    ("dga", "CoefficientBasis.decompose", "dga.basis_decompose", True),
    ("dga", "CoefficientBasis.closure_report", "dga.closure_report", True),
    ("linalg", "rank", "linalg.rank", True),
    ("linalg", "solve", "linalg.solve", True),
    ("linalg", "nullspace", "linalg.nullspace", True),
    ("numfio", "gaussian", "numfio.gaussian", True),
    ("numfio", "spectral_tail_fraction", "numfio.tail", True),
    ("numfio", "phase_system_apply", "numfio.apply", True),
    ("numfio", "fio_apply", "numfio.fio_apply", True),
    ("numfio", "kn_apply", "numfio.kn_apply", True),
    ("numfio", "grid_pullback", "numfio.grid_pullback", True),
    ("numfio", "eval_expr", "numfio.eval_expr", False),
    ("numfio", "unitarity_residual", "numfio.unitarity", True),
    ("numfio", "representation_residual", "numfio.representation", True),
]


def _complex_bytes(values):
    """Bytes of the complex arrays among ``values`` (lists searched too)."""
    total = 0
    for v in values:
        if isinstance(v, np.ndarray) and np.iscomplexobj(v):
            total += v.nbytes
        elif isinstance(v, (list, tuple)):
            total += _complex_bytes(v)
    return total


def _no_coefficients(sym):
    return not any(comp.coeffs for comp in sym.comps)


class Recording:
    """Counts, times and spans of one traced stretch of work."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)       # outermost calls of each key
        self.self_by_key = defaultdict(float)
        self.self_by_layer = defaultdict(float)
        self.extra = defaultdict(int)        # counters fed by the hooks
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")


class Tracer:
    def __init__(self):
        self.rec = Recording()
        self.stack = []                      # [child time, stored span id]
        self.depth = defaultdict(int)
        self.names = []
        self.name_ids = {}
        self.saved = []

    def start(self):
        """Begin a fresh recording and return the previous one."""
        rec, self.rec = self.rec, Recording()
        return rec

    # -- installation -------------------------------------------------------

    def install(self):
        for layer in LAYERS:
            importlib.import_module("quantact." + layer)
        modules = [m for name, m in sys.modules.items()
                   if name == "quantact" or name.startswith("quantact.")]
        hooks = {
            "cli.run": self._after_cli_run,
            "expr.is_zero": self._after_is_zero,
            "opcalc.star": self._after_star,
            "opcalc.compose": self._after_compose,
            "linalg.rank": self._after_linalg,
            "linalg.solve": self._after_linalg,
            "linalg.nullspace": self._after_linalg,
        }
        for layer, path, key, keep in TARGETS:
            if layer == "numfio" and key != "numfio.eval_expr":
                hooks[key] = self._after_numfio
            module = sys.modules["quantact." + layer]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, layer, key,
                                                   keep, hooks.get(key)))
                else:
                    wrapped = self._wrap(raw, layer, key, keep, hooks.get(key))
                self._rebind(owner, attr, raw, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, layer, key, keep, hooks.get(key))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, name, original, wrapped)
        self._count_gaussrat(sys.modules["quantact.expr"].GaussRat)

    def _rebind(self, owner, attr, original, wrapped):
        self.saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def _count_gaussrat(self, cls):
        original = cls.__init__
        tracer = self

        def init(obj, re=0, im=0):
            tracer.rec.extra["expr.gaussrat_new"] += 1
            original(obj, re, im)

        self._rebind(cls, "__init__", original, init)

    def _wrap(self, fn, layer, key, keep, after):
        tracer = self
        perf_counter = time.perf_counter
        if keep and key not in self.name_ids:
            self.name_ids[key] = len(self.names)
            self.names.append(key)
        name_id = self.name_ids.get(key)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            rec = tracer.rec
            span = -1
            if keep:
                span = len(rec.span_start)
                rec.span_name.append(name_id)
                rec.span_parent.append(parent[1] if parent else -1)
                rec.span_start.append(0.0)
                rec.span_end.append(0.0)
            frame = [0.0, span if keep else (parent[1] if parent else -1)]
            stack.append(frame)
            tracer.depth[key] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.depth[key] -= 1
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                own = dur - frame[0]
                rec.calls[key] += 1
                rec.self_by_key[key] += own
                rec.self_by_layer[layer] += own
                if tracer.depth[key] == 0:
                    rec.incl[key] += dur
                if keep:
                    rec.span_start[span] = t0
                    rec.span_end[span] = t1
            if after is not None:
                after(rec, key, args, result)
            return result

        return wrapper

    # -- hooks ----------------------------------------------------------------

    @staticmethod
    def _after_cli_run(rec, key, args, result):
        rec.extra["cli.report_bytes"] += len(result[1].encode())

    @staticmethod
    def _after_is_zero(rec, key, args, result):
        rec.extra["expr.is_zero_exact" if result.kind == "exact"
                  else "expr.is_zero_sampled"] += 1

    @staticmethod
    def _after_star(rec, key, args, result):
        p, k = args[0], args[2]
        if _no_coefficients(p) or _no_coefficients(k):
            rec.extra["opcalc.star_zero_operand_calls"] += 1

    @staticmethod
    def _after_compose(rec, key, args, result):
        rec.extra["opcalc.compose_terms_out"] += sum(len(t) for t in result.terms)

    @staticmethod
    def _after_numfio(rec, key, args, result):
        rec.extra["numfio.bytes_computed"] += (_complex_bytes(args)
                                               + _complex_bytes([result]))

    @staticmethod
    def _after_linalg(rec, key, args, result):
        matrix = args[0]
        rec.extra["dga.matrix_rows"] += matrix.nrows
        rec.extra["dga.matrix_cols"] += matrix.ncols
        rec.extra["dga.matrix_nnz"] += matrix.nnz()
        if key == "linalg.rank":
            rec.extra["linalg.rank_sum"] += result

    # -- output ---------------------------------------------------------------

    def write_spans(self, rec, path):
        """Tab-separated spans: id, parent id, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(rec.span_start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\n"
                         % (i, rec.span_parent[i], self.names[rec.span_name[i]],
                            rec.span_start[i], rec.span_end[i]))


def layer_metrics(rec):
    """The per-layer metrics of one recording, 0 where a layer did no work."""
    c, t, own, x = rec.calls, rec.incl, rec.self_by_key, rec.extra
    star_calls = c["opcalc.star"]
    zero = x["opcalc.star_zero_operand_calls"]
    out = {
        "cli.load_s": t["cli.load"],
        "cli.report_bytes": x["cli.report_bytes"],
        "expr.substitute_calls": c["expr.substitute"],
        "expr.substitute_s": t["expr.substitute"],
        "expr.diff_calls": c["expr.diff"],
        "expr.diff_s": t["expr.diff"],
        "expr.poly_mul_calls": c["expr.poly_mul"],
        "expr.poly_mul_s": t["expr.poly_mul"],
        "expr.gaussrat_new": x["expr.gaussrat_new"],
        "expr.is_zero_exact": x["expr.is_zero_exact"],
        "expr.is_zero_sampled": x["expr.is_zero_sampled"],
        "symbols.arith_calls": c["symbols.arith"],
        "symbols.arith_s": t["symbols.arith"],
        "actions.compose_diffeo_calls": c["actions.compose_diffeo"],
        "actions.compose_diffeo_s": t["actions.compose_diffeo"],
        "actions.pullback_calls": c["actions.pullback"],
        "actions.pullback_s": t["actions.pullback"],
        "opcalc.star_calls": star_calls,
        "opcalc.star_s": t["opcalc.star"],
        "opcalc.star_zero_operand_calls": zero,
        "opcalc.star_useful_ratio": ((star_calls - zero) / star_calls
                                     if star_calls else 0.0),
        "opcalc.compose_s": t["opcalc.compose"],
        "opcalc.compose_self_s": own["opcalc.compose"],
        "opcalc.compose_terms_out": x["opcalc.compose_terms_out"],
        "dga.twisted_d_calls": c["dga.twisted_d"],
        "dga.basis_decompose_calls": c["dga.basis_decompose"],
        "dga.basis_decompose_s": t["dga.basis_decompose"],
        "dga.zero_report_s": t["dga.zero_report"],
        "dga.matrix_rows": x["dga.matrix_rows"],
        "dga.matrix_cols": x["dga.matrix_cols"],
        "dga.matrix_nnz": x["dga.matrix_nnz"],
        "linalg.rank_calls": c["linalg.rank"],
        "linalg.rank_s": t["linalg.rank"],
        "linalg.solve_calls": c["linalg.solve"],
        "linalg.solve_s": t["linalg.solve"],
        "linalg.nullspace_calls": c["linalg.nullspace"],
        "linalg.nullspace_s": t["linalg.nullspace"],
        "linalg.rank_sum": x["linalg.rank_sum"],
        "numfio.apply_calls": c["numfio.apply"],
        "numfio.apply_s": t["numfio.apply"],
        "numfio.kn_apply_s": t["numfio.kn_apply"],
        "numfio.grid_pullback_s": t["numfio.grid_pullback"],
        "numfio.eval_expr_s": t["numfio.eval_expr"],
        "numfio.bytes_computed": x["numfio.bytes_computed"],
    }
    for layer in LAYERS:
        out[layer + ".self_s"] = rec.self_by_layer[layer]
    return out
