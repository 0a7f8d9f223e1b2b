"""Config-driven entry point for the checking and solving workflows.

Config files are line oriented:

    [section]
    key = value        # comment

Blank lines and comment lines are skipped; every ``#`` starts an inline
comment (there is no escape, so no value can hold one).  Keys live inside
a section; duplicate sections or keys, and any malformed line, are
rejected with their line number.

Tasks (``--task`` or ``task =`` under ``[session]``):

    check-action     verify the group-action axioms           [action]
    check-cocycle    phase cochain delta-closedness           [action] [phase]
    mc-check         Maurer-Cartan residual of a system       [action] + [phase]|[system]
    mc-solve         order-n correction and cocycle basis     [action] [basis]
    cohomology       twisted H^0..H^2 per symbol order        [action] [basis]
    verify-numeric   grid unitarity + representation checks   [action] [phase] [grid] [numeric]
    expand           amplitude series -> graded symbol        [amplitude]

Flags ``--order``, ``--seed`` and ``--out`` override the [session] values.
With a fixed seed every report, rewritten in place in ``<out>/<task>.txt``
(truncating first costs more; only a regular file is cut at the end), is
byte-identical across runs.  Exit status: 0 when every identity holds, 1
when any fails, 2 on config errors (an unreadable config or report path
included).  Only verify-numeric imports numpy and ``numfio``, when it runs.
Each task counts its work from the config alone, and a count past its
budget is a config error naming the section, raised before any basis, slot
map or grid array is built (``_admit``):

    SLOT_BUDGET     rows of d_{P0} in mc-solve and cohomology    [basis]
                    multi-indices C(dim + n, n) in expand        [amplitude]
    SYMBOL_BUDGET   symbol slots of the slot maps                [basis]
                    (order + 1) x residual test tuples, mc-check [session]
    CELL_BUDGET     grid cells x arrays alive at once            [grid]
    APPLY_BUDGET    grid cells x plan applications               [numeric]

A verify-numeric phase whose e^{i S_g} is not finite on the grid (a pole at
a grid point) is a config error naming [phase], raised when its plan is
built; so is a map phi_g or phi_g^{-1} not finite and real where it is
evaluated, naming [action] (the map is checked first).  So is an expression
that does not parse, raises a power past 2^31 - 1 or may expand past
``expr.TERM_BUDGET`` terms, naming its key (forward and inverse for their
composites in check-action); the README lists the rest.
A config-defined action whose forward or inverse map divides by zero at a
parameter value the task meets (check-action meets the identity parameter
first) is a config error naming [action] forward or [action] inverse; an
expand term that divides by zero at xi = 0, removable or not, is a config
error naming [amplitude] terms.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import stat
import sys
from fractions import Fraction

from .actions import (SingularMapError, action_from_config, check_action,
                      _split_exprs)
from .dga import (Cochain, CoefficientBasis, PhaseCochain, _is_unital, _tuple_label,
                  cochain_zero_report, delta_phase, exp_system, mc_residual,
                  solve_order, test_tuples, trivial_system, cohomology_dims)
from .expr import ExprError, VarBinding, parse
from .report import Report
from .symbols import (AmplitudeSeries, FormalSymbol, default_xi_names,
                      dump_symbol, taylor_from_amplitude)


class ConfigError(ValueError):
    """Malformed or incomplete configuration."""


# ---------------------------------------------------------------------------
# config parsing


def parse_config(text):
    """Parse the line-oriented section/key format into nested dicts."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ConfigError("line %d: malformed section header %r" % (lineno, raw.strip()))
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError("line %d: duplicate section [%s]" % (lineno, name))
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r" % (lineno, raw.strip()))
        if current is None:
            raise ConfigError("line %d: key outside any [section]" % lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("line %d: empty key" % lineno)
        if key in sections[current]:
            raise ConfigError("line %d: duplicate key %r in [%s]" % (lineno, key, current))
        sections[current][key] = value.strip()
    return sections


class SessionConfig:
    """Resolved run parameters: sections plus task/order/seed/out."""

    def __init__(self, path, sections, task, order, seed, out):
        if order < 0:
            raise ConfigError("truncation order must be >= 0, got %d" % order)
        if task not in TASKS:
            raise ConfigError("unknown task %r (have: %s)"
                              % (task, ", ".join(sorted(TASKS))))
        self.path, self.sections, self.task = path, sections, task
        self.order, self.seed, self.out = order, seed, out

    @classmethod
    def load(cls, path, task=None, order=None, seed=None, out=None):
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        try:
            with open(path) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:   # a directory, or not text
            raise ConfigError("cannot read config file %s: %s"
                              % (path, getattr(exc, "strerror", exc))) from None
        sections = parse_config(text)
        session = sections.get("session", {})
        task = task if task is not None else session.get("task")
        if task is None:
            raise ConfigError("no task given (use --task or [session] task)")
        order = order if order is not None else _get_number(session, "order", 1, "session", int)
        seed = seed if seed is not None else _get_number(session, "seed", 0, "session", int)
        out = out if out is not None else session.get("out", ".")
        return cls(path, sections, task, order, seed, out)

    def section(self, name):
        if name not in self.sections:
            raise ConfigError("task %s requires a [%s] section"
                              % (self.task, name))
        return self.sections[name]


def _number(text, where, key, convert):
    """One numeric value of ``[where] key`` as ``convert`` (int or float).

    A float is read as an exact Fraction first, so "1/10" is accepted.  A
    malformed value, "1/0" and "1e400" included, is a ConfigError.
    """
    try:
        return int(text) if convert is int else float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError("[%s] %s must be %s, got %r"
                          % (where, key, "an integer" if convert is int else "a number",
                             text.strip())) from None


def _get_number(section, key, default, where, convert):
    if key not in section:
        if default is None:
            raise ConfigError("[%s] is missing the %r key" % (where, key))
        return default
    return _number(section[key], where, key, convert)


def _packets(section, key, dim):
    """``[numeric] key``: packets separated by ';', each of exactly ``dim``
    comma-separated numbers; one packet at the origin by default."""
    packets = [[_number(part, "numeric", key, float) for part in chunk.split(",") if part.strip()]
               for chunk in section.get(key, ",".join(["0"] * dim)).split(";")]
    for packet in packets:
        if len(packet) != dim:
            raise ConfigError("[numeric] %s: each packet needs %d numbers, got %d"
                              % (key, dim, len(packet)))
    return packets


# ---------------------------------------------------------------------------
# shared builders


def _load_action(cfg):
    section = cfg.section("action")
    try:
        return action_from_config(section)
    except KeyError as exc:
        raise ConfigError("[action] is missing the %r key" % exc.args[0]) from None
    except ValueError as exc:
        raise ConfigError("[action]: %s" % exc)


def _exprs(section, where, key, binding, parse_text=_split_exprs):
    """``[where] key`` parsed; a bad expression is a config error naming the key."""
    try:
        return parse_text(section[key], binding)
    except ExprError as exc:
        raise ConfigError("[%s] %s: %s" % (where, key, exc)) from None


def _per_element(action, section, where, key):
    """``[where] key``: one expression per element of the finite group."""
    exprs = _exprs(section, where, key, action.binding)
    if len(exprs) != action.group.size:
        raise ConfigError("[%s] %s: expected %d entries, got %d"
                          % (where, key, action.group.size, len(exprs)))
    return exprs


def _phase_cochain(cfg, action):
    section = cfg.section("phase")
    if action.is_finite:
        if "exprs" not in section:
            raise ConfigError("[phase] needs 'exprs' (one per group element) for finite groups")
        exprs = _per_element(action, section, "phase", "exprs")
        return PhaseCochain(action, 1, table={(g,): exprs[g] for g in action.group.elements()})
    if "expr" not in section:
        raise ConfigError("[phase] needs 'expr' over coords and parameters")
    expr = _exprs(section, "phase", "expr", action.binding, parse)
    names = action.group.param_names

    def fn(gs):
        try:
            return expr.substitute(dict(zip(names, gs[0])))
        except ZeroDivisionError:
            raise ConfigError("[phase] expr: division by zero at %s"
                              % _tuple_label(action, gs)) from None

    return PhaseCochain(action, 1, fn=fn)


def _system_cochain(cfg, action):
    """Degree-1 symbol system: [system] scalar values or exp of [phase]."""
    if "system" in cfg.sections:
        section = cfg.sections["system"]
        if "values" not in section:
            raise ConfigError("[system] needs 'values' (one per group element)")
        if not action.is_finite:
            raise ConfigError("[system] values need a finite group; use [phase] for "
                              "parametric groups")
        values = _per_element(action, section, "system", "values")
        table = {(g,): FormalSymbol.from_scalar(action.dim, cfg.order, values[g])
                 for g in action.group.elements()}
        return Cochain(action, 1, cfg.order, table=table)
    if "phase" in cfg.sections:
        return exp_system(_phase_cochain(cfg, action), order=cfg.order)
    raise ConfigError("task %s requires a [system] or [phase] section" % cfg.task)


# ---------------------------------------------------------------------------
# admission.  Times and peak RSS are of ``run`` in process on a 2-CPU Xeon
# with Python 3.11, at the largest admitted count quoted.

# Rows |multi-indices(dim, n)| x |basis| x m^(k+1) of d_{P0} on degree k at
# order n in mc-solve and cohomology, m = |G| - 1 on the normalized complex
# (P0 = 1 unital), else |G|; and expand's multi-indices C(dim + n, n).
# Cohomology on C4 at basis degree 5, orders 0..5 (11,907): 0.37-0.50 s, 47 MB.
SLOT_BUDGET = 12_000
# Symbol slots of the slot maps: m x |multi-indices(dim, n)| stars of n + 1
# slots at each order n the task runs.  Cohomology on C4 at basis degree 0,
# orders 0..20 (85,008): 0.68 s, 39 MB.  Symbol slots to check in mc-check:
# (order + 1) x test tuples; configs/galilean_mc.cfg, order 19,999: 0.13 s, 21 MB.
SYMBOL_BUDGET = 100_000
# Grid cells x the arrays verify-numeric keeps alive at once: packets, their
# images and two per plan (elements and a product).  1024^2 x 2 x (6 + 1 + 1): 1.7 s, 344 MB.
CELL_BUDGET = 2 ** 24
# Grid cells x plan applications, (pairs + elements) x packets, each counted as
# at least PLAN_CELLS cells: building a product's plan costs about as much as
# applying one to that many, so a tiny grid cannot hide its pairs.
# 1024^2 x (10 + 4) x 2: 1.9 s, 292 MB; 62 elements on a 1-cell grid: 2.0 s.
APPLY_BUDGET = 2 ** 25
PLAN_CELLS = 2 ** 14
BUDGETS = {"slots": SLOT_BUDGET, "symbol slots in its slot maps": SYMBOL_BUDGET,
           "symbol slots to check": SYMBOL_BUDGET, "multi-indices": SLOT_BUDGET,
           "cells alive at once": CELL_BUDGET, "cells of plan applications": APPLY_BUDGET}


def _admit(estimates):
    """Refuse the run at the first (section, subject, formula, count, unit)
    estimate whose count passes BUDGETS[unit]; later ones are not computed."""
    for section, subject, formula, count, unit in estimates:
        if count > BUDGETS[unit]:
            raise ConfigError("[%s] %s needs %s = %d %s, more than the budget of %d"
                              % (section, subject, formula, count, unit, BUDGETS[unit]))


def _slot_estimates(cfg, action, size, row_degree, orders):
    """Rows of d_{P0}, then symbol slots, counted once the rows are admitted."""
    n = cfg.order
    alphas = math.comb(action.dim + n, n)
    m = action.group.size - _is_unital(action, trivial_system(action, 0))   # 1 less if normalized
    yield ("basis", "%s at order %d over a basis of %d elements" % (cfg.task, n, size),
           "%d x %d x %d^%d" % (alphas, size, m, row_degree), alphas * size * m ** row_degree,
           "slots")
    per_h = sum(math.comb(action.dim + k, k) * (k + 1) for k in orders)   # n < alphas <= slots
    yield ("basis", "%s at order %d" % (cfg.task, n), "%d x %d" % (m, per_h), m * per_h,
           "symbol slots in its slot maps")


def _basis(cfg, action, row_degree, orders):
    """The [basis] span, admitted before it is built: d_{P0} on
    ``row_degree``-tuples at cfg.order, and the slot maps at ``orders``."""
    section = cfg.section("basis")
    if "monomials" in section:
        deg = _get_number(section, "monomials", None, "basis", int)
        if deg < 0:
            raise ConfigError("[basis] monomials must be >= 0, got %d" % deg)
        exprs, size = None, math.comb(action.dim + deg, deg)
    elif "exprs" in section:
        exprs = _exprs(section, "basis", "exprs", VarBinding(coordinates=action.coords))
        size = len(exprs)
    else:
        raise ConfigError("[basis] needs 'exprs' or 'monomials'")
    _admit(_slot_estimates(cfg, action, size, row_degree, orders))
    if exprs is None:
        return CoefficientBasis.monomials(action.coords, deg)
    try:
        return CoefficientBasis(exprs)
    except ValueError as exc:
        raise ConfigError("[basis] exprs: %s" % exc)


def _elements(action, section, where):
    if "elements" not in section:
        raise ConfigError("[%s] is missing the 'elements' key" % where)
    chunks = [c.strip() for c in section["elements"].split(";") if c.strip()]
    out = []
    for chunk in chunks:
        try:
            if action.is_finite:
                g = int(chunk)
                if not 0 <= g < action.group.size:
                    raise ValueError("index outside 0..%d" % (action.group.size - 1))
            else:
                g = action.group.element(*(Fraction(p.strip()) for p in chunk.split(",")))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError("[%s] elements: bad entry %r: %s" % (where, chunk, exc))
        out.append(g)
    if not out:
        raise ConfigError("[%s] elements must list at least one element" % where)
    return out


# ---------------------------------------------------------------------------
# tasks


def task_check_action(cfg, rng):
    action = _load_action(cfg)
    try:
        report = check_action(action, rng=rng)
    except ExprError as exc:   # each map parsed: their composites outgrew the term budget
        raise ConfigError("[action] forward and inverse: composing the maps: %s" % exc) from None
    report.params["action"] = action.name
    return report, []


def task_check_cocycle(cfg, rng):
    action = _load_action(cfg)
    phase = _phase_cochain(cfg, action)
    report = cochain_zero_report(delta_phase(phase), title="phase cocycle condition", rng=rng)
    report.params["action"] = action.name
    return report, []


def task_mc_check(cfg, rng):
    action = _load_action(cfg)
    # a symbol of order + 1 slots per test tuple of the residual, counted on
    # a spare rng so that the run's own draws stay as they were
    tuples = len(test_tuples(action, 2, rng=random.Random(0)))
    _admit([("session", "mc-check at order %d" % cfg.order, "(%d + 1) x %d" % (cfg.order, tuples),
             (cfg.order + 1) * tuples, "symbol slots to check")])
    system = _system_cochain(cfg, action)
    report = cochain_zero_report(mc_residual(system), title="maurer-cartan residual", rng=rng)
    report.params["action"] = action.name
    report.params["order"] = system.order
    return report, []


def task_mc_solve(cfg, rng):
    action = _load_action(cfg)
    if not action.is_finite:
        raise ConfigError("mc-solve works on finite group actions")
    n = cfg.order
    basis = _basis(cfg, action, 2, [n])
    if n < 1:
        raise ConfigError("mc-solve needs --order >= 1")
    p0 = trivial_system(action, n)
    report = Report("order-%d correction" % n, params={"action": action.name, "basis": len(basis)})
    if not _closure_checked(report, basis, action, rng):
        return report, ["correction not computed: the basis is not closed under the action"]
    res = solve_order(action, p0, {}, n, basis, rng=rng)
    report.add("right-hand side is twisted-closed", bool(res.rhs_closed), "exact")
    report.add("correction equation solvable", res.solved, "exact",
               "" if res.solved else "obstruction found")
    lines = ["kernel dimension = %d" % res.kernel_dim]
    if res.solved:
        lines.append("solution:")
        lines.extend(_dump_degree1(action, res.solution))
        for i, coc in enumerate(res.cocycle_basis or []):
            lines.append("cocycle basis vector %d:" % i)
            lines.extend(_dump_degree1(action, coc))
    return report, lines


def _closure_checked(report, basis, action, rng):
    """Add the basis closure check to ``report``; True when it holds.  The
    solvers decompose pulled-back coefficients in the basis, so need it closed."""
    closed = basis.closure_report(action, rng=rng).all_ok
    report.add("coefficient basis closed under the action", closed, "exact")
    return closed


def _dump_degree1(action, cochain):
    lines = []
    for g in action.group.elements():
        v = cochain.value((g,))
        if v.is_zero():
            continue
        lines.append("at %s:" % _tuple_label(action, (g,)))
        lines.extend("  " + ln for ln in dump_symbol(v).splitlines())
    return lines or ["(zero cochain)"]


def task_cohomology(cfg, rng):
    action = _load_action(cfg)
    if not action.is_finite:
        raise ConfigError("cohomology tables work on finite group actions")
    basis = _basis(cfg, action, 3, range(cfg.order + 1))
    report = Report("twisted cohomology dimensions",
                    params={"action": action.name, "basis": len(basis),
                            "orders": "0..%d" % cfg.order})
    if not _closure_checked(report, basis, action, rng):
        return report, ["cohomology not computed: the basis is not closed under the action"]
    dims = cohomology_dims(action, basis, n_max=cfg.order)
    return report, ["order %d: H0=%d H1=%d H2=%d" % (n, row["H0"], row["H1"], row["H2"])
                    for n, row in sorted(dims.items())]


def task_verify_numeric(cfg, rng):
    import numpy as np   # the one task on the grid loads numpy and numfio itself
    from . import numfio
    action = _load_action(cfg)
    phase = _phase_cochain(cfg, action)
    gsec, nsec = cfg.section("grid"), cfg.section("numeric")
    args = (_get_number(gsec, "dim", 2, "grid", int),
            _get_number(gsec, "points", None, "grid", int),
            _get_number(gsec, "length", None, "grid", float),
            _get_number(gsec, "hbar", None, "grid", float))
    try:
        grid = numfio.WaveGrid(*args)
    except ValueError as exc:
        raise ConfigError("[grid]: %s" % exc)
    if grid.dim != action.dim:
        raise ConfigError("[grid] dim %d does not match the %d-dimensional action"
                          % (grid.dim, action.dim))
    sigma = _get_number(nsec, "sigma", 1.0, "numeric", float)
    if sigma <= 0:
        raise ConfigError("[numeric] sigma must be positive, got %r" % nsec["sigma"].strip())
    centers = _packets(nsec, "centers", grid.dim)
    momenta = _packets(nsec, "momenta", grid.dim)
    if len(centers) != len(momenta):
        raise ConfigError("[numeric] centers and momenta list different packet counts")
    consts = {}
    if "constants" in nsec:
        for pair in nsec["constants"].split(","):
            if ":" not in pair:
                raise ConfigError("[numeric] constants must be 'name:value' pairs")
            name, value = (part.strip() for part in pair.split(":", 1))
            # a coordinate or a second value would shadow the first unnoticed
            if name in consts:
                raise ConfigError("[numeric] constants: %r is given twice" % name)
            if name not in action.binding.constants:
                raise ConfigError("[numeric] constants: %r is not a constant of the action "
                                  "(it declares %s)" % (name, ", ".join(action.binding.constants)
                                                        or "none"))
            consts[name] = _number(value, "numeric", "constants", float)
    elements = _elements(action, nsec, "numeric")
    utol = _get_number(nsec, "unitarity_tol", 1e-8, "numeric", float)
    rtol = _get_number(nsec, "representation_tol", 1e-7, "numeric", float)
    ttol = _get_number(nsec, "tail_tol", 1e-8, "numeric", float)
    distinct = list(dict.fromkeys(elements))
    n, d, p, cells = len(elements), len(distinct), len(centers), grid.npoints ** grid.dim
    pairs, run_on = n * (n + 1) // 2, "verify-numeric on %d^%d points" % (grid.npoints, grid.dim)
    _admit([("grid", "%s with %d packets and %d distinct elements" % (run_on, p, d),
             "%d x 2 x (%d + %d + 1)" % (cells, p, d), cells * 2 * (p + d + 1),
             "cells alive at once"),
            ("numeric", "%s with %d elements and %d packets" % (run_on, n, p),
             "max(%d, %d) x (%d + %d) x %d" % (cells, PLAN_CELLS, pairs, n, p),
             max(cells, PLAN_CELLS) * (pairs + n) * p, "cells of plan applications")])

    def packet(center, momentum):
        psi = numfio.gaussian(grid, centers=center, sigma=sigma, momenta=momentum)
        return psi, numfio.spectral_tail_fraction(grid, psi)

    # the grid work runs beside the caller (numfio.overlap), each result in
    # its place, so the report does not depend on where it was computed
    psis, tails = zip(*numfio.overlap([functools.partial(packet, c, m)
                                       for c, m in zip(centers, momenta)]))

    def plan_for(g):
        try:
            return numfio.phase_system_plan(grid, action, phase, g, consts=consts)
        except (numfio.NonFiniteError, numfio.DenseGridError) as exc:
            where = ("grid" if isinstance(exc, numfio.DenseGridError) else
                     "action" if isinstance(exc, numfio.NonFiniteMapError) else "phase")
            raise ConfigError("[%s] at %s: %s" % (where, _tuple_label(action, (g,)), exc))

    report = Report("numeric unitarity and representation",
                    params={"action": action.name,
                            "grid": "dim=%d M=%d L=%g hbar=%g"
                                    % (grid.dim, grid.npoints, grid.length, grid.hbar),
                            "xi_window": "%.6g" % float(max(abs(grid.xi_axis()))),
                            "packets": len(psis)})
    tail = max(tails)
    report.add("packet spectral tail below %.1e" % ttol, tail < ttol, "numeric", "max %.3e" % tail)
    # one plan per element for the whole task, and each element g2 applied
    # to each packet once: the images give g2's unitarity residual and are
    # the inner factor of every pair (g1, g2), g1 at or before g2.  A
    # product's plan lives for its pair only, so at most |elements| + 1 plans
    # and one element's images are alive at once
    plans = dict(zip(distinct, numfio.overlap([functools.partial(plan_for, g)
                                               for g in distinct])))
    norms, gram = numfio.packet_gram(grid, psis)
    unitarity, composition = [], {}
    try:
        with np.errstate(all="ignore"):   # overflow is checked, not warned of
            for j, g2 in enumerate(elements):
                images = numfio.overlap([functools.partial(plans[g2], p) for p in psis])
                unitarity.append(numfio.unitarity_residual(grid, images, norms, gram))
                for i, g1 in enumerate(elements[:j + 1]):
                    product = action.mult(g1, g2)
                    composition[i, j] = numfio.representation_residual(
                        grid, plans[g1], plans.get(product) or plan_for(product),
                        images, psis, norms)
                del images
    except numfio.NonFiniteError as exc:   # a finite e^{i S_g} too large to apply
        raise ConfigError("[phase]: %s" % exc) from None
    for g, resid in zip(elements, unitarity):
        report.add("unitarity at %s within %.1e" % (_tuple_label(action, (g,)), utol),
                   resid <= utol, "numeric", "residual %.3e" % resid)
    for (i, j), resid in sorted(composition.items()):
        report.add("composition at %s within %.1e"
                   % (_tuple_label(action, (elements[i], elements[j])), rtol),
                   resid <= rtol, "numeric", "residual %.3e" % resid)
    return report, []


def task_expand(cfg, rng):
    section = cfg.section("amplitude")
    if "coords" not in section or "terms" not in section:
        raise ConfigError("[amplitude] needs 'coords' and 'terms'")
    coords = [c.strip() for c in section["coords"].split(",")]
    xi_names = [x.strip() for x in section.get("xi_names", "").split(",")
                if x.strip()] or default_xi_names(len(coords))
    if len(xi_names) != len(coords):
        raise ConfigError("[amplitude] xi_names: expected %d names, got %d"
                          % (len(coords), len(xi_names)))
    consts = [c.strip() for c in section.get("constants", "").split(",") if c.strip()]
    binding = VarBinding(coordinates=coords + xi_names, constants=consts)
    terms = _exprs(section, "amplitude", "terms", binding)
    convention = section.get("convention", "multi")
    if convention not in ("multi", "total"):
        raise ConfigError("[amplitude] convention must be 'multi' or 'total', got %r" % convention)
    n, dim = cfg.order, len(coords)
    _admit([("amplitude", "expand at order %d in %d coordinates" % (n, dim),
             "C(%d + %d, %d)" % (dim, n, n), math.comb(dim + n, n), "multi-indices")])
    series = AmplitudeSeries(dim, terms, xi_names)
    try:
        sym = taylor_from_amplitude(series, n, convention)
    except ZeroDivisionError:
        raise ConfigError("[amplitude] terms: a term or one of its xi-derivatives divides "
                          "by zero at xi = 0, where the series is expanded") from None
    report = Report("amplitude expansion",
                    params={"convention": convention, "order": cfg.order, "terms": len(terms)})
    return report, dump_symbol(sym).splitlines()


TASKS = {
    "check-action": task_check_action,
    "check-cocycle": task_check_cocycle,
    "mc-check": task_mc_check,
    "mc-solve": task_mc_solve,
    "cohomology": task_cohomology,
    "verify-numeric": task_verify_numeric,
    "expand": task_expand,
}


# ---------------------------------------------------------------------------
# driver


def run(cfg):
    """Execute the configured task; returns (exit status, report text)."""
    rng = random.Random(cfg.seed)
    try:
        report, lines = TASKS[cfg.task](cfg, rng)
    except SingularMapError as exc:
        # only a config-defined action has parameter maps to divide by zero
        raise ConfigError("[action] %s" % exc) from None
    text = "quantact %s\nconfig = %s\nseed = %d\n\n" % (
        cfg.task, os.path.basename(cfg.path), cfg.seed)
    text += report.render() + "".join(line + "\n" for line in lines)
    path = os.path.join(cfg.out, cfg.task + ".txt")
    try:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError("cannot write report %s: %s" % (path, exc.strerror)) from None
    return (0 if report.all_ok else 1), text


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="quantact",
        description="config-driven checks for quantized group actions")
    ap.add_argument("--config", required=True, help="path to the config file")
    ap.add_argument("--task", help="task name (overrides [session] task)")
    ap.add_argument("--order", type=int, help="truncation order N")
    ap.add_argument("--seed", type=int, help="random seed for sampled checks")
    ap.add_argument("--out", help="directory for report files")
    args = ap.parse_args(argv)
    try:
        cfg = SessionConfig.load(args.config, task=args.task, order=args.order,
                                 seed=args.seed, out=args.out)
        status, text = run(cfg)
    except (ConfigError, ExprError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
