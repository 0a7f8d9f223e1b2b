"""Config-driven entry point for the checking and solving workflows.

Config files are line oriented:

    [section]
    key = value        # comment

Blank lines and comment lines are skipped; an unescaped ``#`` starts an
inline comment.  Keys live inside a section; duplicate sections or keys,
and any malformed line, are rejected with their line number.

Tasks (``--task`` or ``task =`` under ``[session]``):

    check-action     verify the group-action axioms           [action]
    check-cocycle    phase cochain delta-closedness           [action] [phase]
    mc-check         Maurer-Cartan residual of a system       [action] + [phase]|[system]
    mc-solve         order-n correction / obstruction         [action] [basis]
    cohomology       twisted H^0..H^2 per symbol order        [action] [basis]
    verify-numeric   grid unitarity + representation checks   [action] [phase] [grid] [numeric]
    expand           amplitude series -> graded symbol        [amplitude]

Flags ``--order``, ``--seed`` and ``--out`` override the [session] values.
With a fixed seed every report is byte-identical across runs.  Exit status:
0 when every checked identity holds, 1 when any fails, 2 on config errors.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction

from .actions import action_from_config, check_action, _split_exprs
from .dga import (Cochain, CoefficientBasis, PhaseCochain, _tuple_label,
                  cochain_zero_report, delta_phase, exp_system, mc_residual,
                  phase_zero_report, solve_order, trivial_system,
                  cohomology_dims)
from .expr import ExprError, VarBinding, parse
from .numfio import (WaveGrid, gaussian, phase_system_apply,
                     representation_residual, spectral_tail_fraction,
                     unitarity_residual)
from .report import Report
from .symbols import (AmplitudeSeries, FormalSymbol, dump_symbol,
                      taylor_from_amplitude)


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
            order = _get_int(session, "order", 1, "session")
        if seed is None:
            seed = _get_int(session, "seed", 0, "session")
        out = out if out is not None else session.get("out", ".")
        return cls(path, sections, task, order, seed, out)

    def section(self, name):
        if name not in self.sections:
            raise ConfigError("task %s requires a [%s] section"
                              % (self.task, name))
        return self.sections[name]


def _get_int(section, key, default, where):
    if key not in section:
        if default is None:
            raise ConfigError("[%s] is missing the %r key" % (where, key))
        return default
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError("[%s] %s must be an integer, got %r"
                          % (where, key, section[key]))


def _get_float(section, key, default, where):
    if key not in section:
        if default is None:
            raise ConfigError("[%s] is missing the %r key" % (where, key))
        return default
    try:
        return float(Fraction(section[key]))
    except ValueError:
        raise ConfigError("[%s] %s must be a number, got %r"
                          % (where, key, section[key]))


def _float_list(section, key, where, default=None):
    if key not in section:
        if default is None:
            raise ConfigError("[%s] is missing the %r key" % (where, key))
        return default
    try:
        return [float(Fraction(part.strip()))
                for part in section[key].split(",") if part.strip()]
    except ValueError:
        raise ConfigError("[%s] %s must be comma-separated numbers" % (where, key))


# ---------------------------------------------------------------------------
# shared builders


def _load_action(cfg):
    try:
        return action_from_config(cfg.section("action"))
    except (KeyError, ExprError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError("[action]: %s" % exc)


def _phase_cochain(cfg, action):
    section = cfg.section("phase")
    if action.is_finite:
        if "exprs" not in section:
            raise ConfigError("[phase] needs 'exprs' (one per group element) "
                              "for finite groups")
        exprs = _split_exprs(section["exprs"], action.binding)
        if len(exprs) != action.group.size:
            raise ConfigError("[phase] exprs: expected %d entries, got %d"
                              % (action.group.size, len(exprs)))
        table = {(g,): exprs[g] for g in action.group.elements()}
        return PhaseCochain(action, 1, table=table)
    if "expr" not in section:
        raise ConfigError("[phase] needs 'expr' over coords and parameters")
    expr = parse(section["expr"], action.binding)
    names = action.group.param_names

    def fn(gs):
        return expr.substitute(dict(zip(names, gs[0])))

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
        values = _split_exprs(section["values"], action.binding)
        if len(values) != action.group.size:
            raise ConfigError("[system] values: expected %d entries, got %d"
                              % (action.group.size, len(values)))
        table = {(g,): FormalSymbol.from_scalar(action.dim, cfg.order, values[g])
                 for g in action.group.elements()}
        return Cochain(action, 1, cfg.order, table=table)
    if "phase" in cfg.sections:
        return exp_system(_phase_cochain(cfg, action), order=cfg.order)
    raise ConfigError("task %s requires a [system] or [phase] section"
                      % cfg.task)


def _basis(cfg, action):
    section = cfg.section("basis")
    if "monomials" in section:
        deg = _get_int(section, "monomials", None, "basis")
        if deg < 0:
            raise ConfigError("[basis] monomials must be >= 0, got %d" % deg)
        return CoefficientBasis.monomials(action.coords, deg)
    if "exprs" not in section:
        raise ConfigError("[basis] needs 'exprs' or 'monomials'")
    exprs = _split_exprs(section["exprs"], VarBinding(coordinates=action.coords))
    try:
        return CoefficientBasis(action.coords, exprs)
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
    report = phase_zero_report(delta_phase(phase),
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
    basis = _basis(cfg, action)
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
    elif res.obstruction is not None:
        lines.append("obstruction (degree-2 remainder):")
        for gs in sorted(res.obstruction.tuples()):
            v = res.obstruction.value(gs)
            if not v.is_zero():
                lines.append("at %s:" % _tuple_label(action, gs))
                lines.extend("  " + ln for ln in dump_symbol(v).splitlines())
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
    basis = _basis(cfg, action)
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
    args = (_get_int(gsec, "dim", 2, "grid"), _get_int(gsec, "points", None, "grid"),
            _get_float(gsec, "length", None, "grid"), _get_float(gsec, "hbar", None, "grid"))
    try:
        grid = WaveGrid(*args)
    except ValueError as exc:
        raise ConfigError("[grid]: %s" % exc)
    if grid.dim != action.dim:
        raise ConfigError("[grid] dim %d does not match the %d-dimensional "
                          "action" % (grid.dim, action.dim))
    sigma = _get_float(nsec, "sigma", 1.0, "numeric")
    centers = [_float_list({"c": c}, "c", "numeric")
               for c in nsec.get("centers", "0" + ",0" * (grid.dim - 1)).split(";")]
    momenta = [_float_list({"m": m}, "m", "numeric")
               for m in nsec.get("momenta", "0" + ",0" * (grid.dim - 1)).split(";")]
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
            consts[name.strip()] = float(Fraction(value.strip()))
    elements = _elements(action, nsec, "numeric")
    utol = _get_float(nsec, "unitarity_tol", 1e-8, "numeric")
    rtol = _get_float(nsec, "representation_tol", 1e-7, "numeric")
    ttol = _get_float(nsec, "tail_tol", 1e-8, "numeric")

    psis = [gaussian(grid, centers=c, sigma=sigma, momenta=m)
            for c, m in zip(centers, momenta)]

    def apply_for(g, psi):
        return phase_system_apply(grid, action, phase, g, psi, consts=consts)

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
    for g in elements:
        resid = unitarity_residual(grid, lambda p: apply_for(g, p), psis)
        report.add("unitarity at %s within %.1e" % (_tuple_label(action, (g,)),
                                                    utol),
                   resid <= utol, "numeric", "residual %.3e" % resid)
    pairs = [(elements[i], elements[j])
             for i in range(len(elements)) for j in range(i, len(elements))]
    for g1, g2 in pairs:
        resid = representation_residual(grid, apply_for, action.mult,
                                        [(g1, g2)], psis)
        report.add("composition at %s within %.1e"
                   % (_tuple_label(action, (g1, g2)), rtol),
                   resid <= rtol, "numeric", "residual %.3e" % resid)
    return report, []


def task_expand(cfg, rng):
    section = cfg.section("amplitude")
    if "coords" not in section or "terms" not in section:
        raise ConfigError("[amplitude] needs 'coords' and 'terms'")
    coords = [c.strip() for c in section["coords"].split(",")]
    xi_names = [x.strip() for x in section.get("xi_names", "").split(",")
                if x.strip()] or ["xi%d" % (k + 1) for k in range(len(coords))]
    consts = [c.strip() for c in section.get("constants", "").split(",")
              if c.strip()]
    binding = VarBinding(coordinates=coords + xi_names, constants=consts)
    terms = _split_exprs(section["terms"], binding)
    convention = section.get("convention", "multi")
    series = AmplitudeSeries(len(coords), terms, xi_names)
    sym = taylor_from_amplitude(series, cfg.order, convention)
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
    report, lines = TASKS[cfg.task](cfg, rng)
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
