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
With a fixed seed every report is byte-identical across runs.  Exit status:
0 when every checked identity holds, 1 when any fails, 2 on config errors.
A config whose mc-solve or cohomology matrices would exceed ``SLOT_BUDGET``
rows is a config error, raised before the basis is built; so is an expand
order with more multi-indices than that, raised before any derivative.
A verify-numeric phase whose e^{i S_g} is not finite on the grid (a pole at
a grid point) is a config error naming [phase], raised when its plan is
built; so is a map phi_g or phi_g^{-1} not finite and real where it is
evaluated, naming [action] (the map is checked first).  So is an expression
that does not parse or raises a power past 2^31 - 1, naming its key; the
README lists the rest.
A config-defined action whose forward or inverse map divides by zero at a
parameter value the task meets (check-action meets the identity parameter
first) is a config error naming [action] forward or [action] inverse; an
expand term that divides by zero at xi = 0, removable or not, is a config
error naming [amplitude] terms.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from .actions import (SingularMapError, action_from_config, check_action,
                      _split_exprs)
from .dga import (Cochain, CoefficientBasis, PhaseCochain, _tuple_label,
                  cochain_zero_report, delta_phase, exp_system, mc_residual,
                  solve_order, trivial_system, cohomology_dims)
from .expr import ExprError, VarBinding, parse
from .numfio import (NonFiniteError, NonFiniteMapError, WaveGrid, gaussian,
                     packet_gram, phase_system_plan, representation_residual,
                     spectral_tail_fraction, unitarity_residual)
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
                raise ConfigError("line %d: malformed section header %r"
                                  % (lineno, raw.strip()))
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError("line %d: duplicate section [%s]"
                                  % (lineno, name))
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError("line %d: expected 'key = value', got %r"
                              % (lineno, raw.strip()))
        if current is None:
            raise ConfigError("line %d: key outside any [section]" % lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError("line %d: empty key" % lineno)
        if key in sections[current]:
            raise ConfigError("line %d: duplicate key %r in [%s]"
                              % (lineno, key, current))
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
        self.path = path
        self.sections = sections
        self.task = task
        self.order = order
        self.seed = seed
        self.out = out

    @classmethod
    def load(cls, path, task=None, order=None, seed=None, out=None):
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        with open(path) as fh:
            sections = parse_config(fh.read())
        session = sections.get("session", {})
        task = task if task is not None else session.get("task")
        if task is None:
            raise ConfigError("no task given (use --task or [session] task)")
        if order is None:
            order = _get_number(session, "order", 1, "session", int)
        if seed is None:
            seed = _get_number(session, "seed", 0, "session", int)
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
    try:
        return action_from_config(cfg.section("action"))
    except (KeyError, ExprError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
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
            raise ConfigError("[phase] needs 'exprs' (one per group element) "
                              "for finite groups")
        exprs = _per_element(action, section, "phase", "exprs")
        table = {(g,): exprs[g] for g in action.group.elements()}
        return PhaseCochain(action, 1, table=table)
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
            raise ConfigError("[system] values need a finite group; use "
                              "[phase] for parametric groups")
        values = _per_element(action, section, "system", "values")
        table = {(g,): FormalSymbol.from_scalar(action.dim, cfg.order, values[g])
                 for g in action.group.elements()}
        return Cochain(action, 1, cfg.order, table=table)
    if "phase" in cfg.sections:
        return exp_system(_phase_cochain(cfg, action), order=cfg.order)
    raise ConfigError("task %s requires a [system] or [phase] section"
                      % cfg.task)


# Slots |multi-indices(dim, n)| x |basis| x |G|^(k+1) that mc-solve and
# cohomology may assemble at order n as the rows of d_{P0} on degree k, an
# upper bound on the normalized complex's (|G| - 1)^(k+1) tuples.  On a
# 2-CPU Xeon with Python 3.11, cohomology of C4 at basis degree 3 and
# orders 0..3 (6,400 slots) runs in 0.3-0.45 s; degree 4 and orders 0..4
# (14,400 slots) is refused.
SLOT_BUDGET = 10_000


def _basis(cfg, action, row_degree):
    """The [basis] span, refused before it is built when the slots at
    cfg.order on ``row_degree``-tuples exceed SLOT_BUDGET."""
    section = cfg.section("basis")
    if "monomials" in section:
        deg = _get_number(section, "monomials", None, "basis", int)
        if deg < 0:
            raise ConfigError("[basis] monomials must be >= 0, got %d" % deg)
        _check_slot_budget(cfg, action, math.comb(action.dim + deg, deg), row_degree)
        return CoefficientBasis.monomials(action.coords, deg)
    if "exprs" not in section:
        raise ConfigError("[basis] needs 'exprs' or 'monomials'")
    exprs = _exprs(section, "basis", "exprs", VarBinding(coordinates=action.coords))
    _check_slot_budget(cfg, action, len(exprs), row_degree)
    try:
        return CoefficientBasis(exprs)
    except ValueError as exc:
        raise ConfigError("[basis] exprs: %s" % exc)


def _check_slot_budget(cfg, action, basis_size, row_degree):
    n = cfg.order
    alphas = math.comb(action.dim + n, n)
    slots = alphas * basis_size * action.group.size ** row_degree
    if slots > SLOT_BUDGET:
        raise ConfigError("%s at order %d over a basis of %d elements needs "
                          "%d x %d x %d^%d = %d slots, more than the budget of %d"
                          % (cfg.task, n, basis_size, alphas, basis_size,
                             action.group.size, row_degree, slots, SLOT_BUDGET))


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
    report = check_action(action, rng=rng)
    report.params["action"] = action.name
    return report, []


def task_check_cocycle(cfg, rng):
    action = _load_action(cfg)
    phase = _phase_cochain(cfg, action)
    report = cochain_zero_report(delta_phase(phase),
                                 title="phase cocycle condition", rng=rng)
    report.params["action"] = action.name
    return report, []


def task_mc_check(cfg, rng):
    action = _load_action(cfg)
    system = _system_cochain(cfg, action)
    report = cochain_zero_report(mc_residual(system),
                                 title="maurer-cartan residual", rng=rng)
    report.params["action"] = action.name
    report.params["order"] = system.order
    return report, []


def task_mc_solve(cfg, rng):
    action = _load_action(cfg)
    if not action.is_finite:
        raise ConfigError("mc-solve works on finite group actions")
    basis = _basis(cfg, action, 2)
    n = cfg.order
    if n < 1:
        raise ConfigError("mc-solve needs --order >= 1")
    p0 = trivial_system(action, n)
    report = Report("order-%d correction" % n,
                    params={"action": action.name, "basis": len(basis)})
    if not _closure_checked(report, basis, action, rng):
        return report, ["correction not computed: the basis is not closed "
                        "under the action"]
    res = solve_order(action, p0, {}, n, basis, rng=rng)
    report.add("right-hand side is twisted-closed", bool(res.rhs_closed),
               "exact")
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
    """Add the basis closure check to ``report``; True when it holds.

    The solvers decompose pulled-back coefficients in the basis, so they
    only run on a closed basis.
    """
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
    if not lines:
        lines.append("(zero cochain)")
    return lines


def task_cohomology(cfg, rng):
    action = _load_action(cfg)
    if not action.is_finite:
        raise ConfigError("cohomology tables work on finite group actions")
    basis = _basis(cfg, action, 3)
    report = Report("twisted cohomology dimensions",
                    params={"action": action.name, "basis": len(basis),
                            "orders": "0..%d" % cfg.order})
    if not _closure_checked(report, basis, action, rng):
        return report, ["cohomology not computed: the basis is not closed "
                        "under the action"]
    dims = cohomology_dims(action, basis, n_max=cfg.order)
    lines = []
    for n in sorted(dims):
        row = dims[n]
        lines.append("order %d: H0=%d H1=%d H2=%d"
                     % (n, row["H0"], row["H1"], row["H2"]))
    return report, lines


def task_verify_numeric(cfg, rng):
    action = _load_action(cfg)
    phase = _phase_cochain(cfg, action)
    gsec = cfg.section("grid")
    nsec = cfg.section("numeric")
    args = (_get_number(gsec, "dim", 2, "grid", int),
            _get_number(gsec, "points", None, "grid", int),
            _get_number(gsec, "length", None, "grid", float),
            _get_number(gsec, "hbar", None, "grid", float))
    try:
        grid = WaveGrid(*args)
    except ValueError as exc:
        raise ConfigError("[grid]: %s" % exc)
    if grid.dim != action.dim:
        raise ConfigError("[grid] dim %d does not match the %d-dimensional "
                          "action" % (grid.dim, action.dim))
    sigma = _get_number(nsec, "sigma", 1.0, "numeric", float)
    if sigma <= 0:
        raise ConfigError("[numeric] sigma must be positive, got %r" % nsec["sigma"].strip())
    centers = _packets(nsec, "centers", grid.dim)
    momenta = _packets(nsec, "momenta", grid.dim)
    if len(centers) != len(momenta):
        raise ConfigError("[numeric] centers and momenta list different "
                          "packet counts")
    consts = {}
    if "constants" in nsec:
        for pair in nsec["constants"].split(","):
            if ":" not in pair:
                raise ConfigError("[numeric] constants must be 'name:value' "
                                  "pairs")
            name, value = pair.split(":", 1)
            consts[name.strip()] = _number(value, "numeric", "constants", float)
    elements = _elements(action, nsec, "numeric")
    utol = _get_number(nsec, "unitarity_tol", 1e-8, "numeric", float)
    rtol = _get_number(nsec, "representation_tol", 1e-7, "numeric", float)
    ttol = _get_number(nsec, "tail_tol", 1e-8, "numeric", float)

    psis = [gaussian(grid, centers=c, sigma=sigma, momenta=m)
            for c, m in zip(centers, momenta)]

    def plan_for(g):
        try:
            return phase_system_plan(grid, action, phase, g, consts=consts)
        except NonFiniteError as exc:
            where = "action" if isinstance(exc, NonFiniteMapError) else "phase"
            raise ConfigError("[%s] at %s: %s"
                              % (where, _tuple_label(action, (g,)), exc))

    report = Report("numeric unitarity and representation",
                    params={"action": action.name,
                            "grid": "dim=%d M=%d L=%g hbar=%g"
                                    % (grid.dim, grid.npoints, grid.length,
                                       grid.hbar),
                            "xi_window": "%.6g" % float(max(abs(grid.xi_axis()))),
                            "packets": len(psis)})
    tail = max(spectral_tail_fraction(grid, p) for p in psis)
    report.add("packet spectral tail below %.1e" % ttol, tail < ttol,
               "numeric", "max %.3e" % tail)
    # one plan per element for the whole task, and each element g2 applied
    # to each packet once: the images give g2's unitarity residual and are
    # the inner factor of every pair (g1, g2), g1 at or before g2.  A
    # product's plan lives for its pair only, so at most |elements| + 1 plans
    # and one element's images are alive at once
    plans = {g: plan_for(g) for g in dict.fromkeys(elements)}
    norms, gram = packet_gram(grid, psis)
    unitarity, composition = [], {}
    try:
        with np.errstate(all="ignore"):   # overflow is checked, not warned of
            for j, g2 in enumerate(elements):
                images = [plans[g2](p) for p in psis]
                unitarity.append(unitarity_residual(grid, images, norms, gram))
                for i, g1 in enumerate(elements[:j + 1]):
                    product = action.mult(g1, g2)
                    composition[i, j] = representation_residual(
                        grid, plans[g1], plans.get(product) or plan_for(product),
                        images, psis, norms)
                del images
    except NonFiniteError as exc:   # a finite e^{i S_g} too large to apply
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
    consts = [c.strip() for c in section.get("constants", "").split(",")
              if c.strip()]
    binding = VarBinding(coordinates=coords + xi_names, constants=consts)
    terms = _exprs(section, "amplitude", "terms", binding)
    convention = section.get("convention", "multi")
    if convention not in ("multi", "total"):
        raise ConfigError("[amplitude] convention must be 'multi' or 'total', "
                          "got %r" % convention)
    alphas = math.comb(len(coords) + cfg.order, cfg.order)
    if alphas > SLOT_BUDGET:
        raise ConfigError("expand at order %d in %d coordinates needs %d "
                          "multi-indices, more than the budget of %d"
                          % (cfg.order, len(coords), alphas, SLOT_BUDGET))
    series = AmplitudeSeries(len(coords), terms, xi_names)
    try:
        sym = taylor_from_amplitude(series, cfg.order, convention)
    except ZeroDivisionError:
        raise ConfigError("[amplitude] terms: a term or one of its xi-derivatives "
                          "divides by zero at xi = 0, where the series is "
                          "expanded") from None
    report = Report("amplitude expansion",
                    params={"convention": convention, "order": cfg.order,
                            "terms": len(terms)})
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
    text += report.render()
    if lines:
        text += "\n".join(lines) + "\n"
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, cfg.task + ".txt")
    with open(out_path, "w") as fh:
        fh.write(text)
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
