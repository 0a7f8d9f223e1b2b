"""The benchmark's workloads: inputs made from a seed, one repetition, checks.

Each workload object is used in three steps by ``worker.py``:

* ``setup(seed, workdir)`` imports quantact and builds every input (config
  file and its parse, action, cochains, grid, packets).  This is ``setup_s``.
* ``run_once()`` does one repetition through quantact's public API and
  returns its raw output.  This is what ``wall_s`` times.
* ``check(output)`` returns a list of problems, empty when the output agrees
  with the oracles in ``oracles.py`` and with the properties the method must
  have.

``yardstick`` names the kind of yardstick unit (see ``yardstick.py``) that
slows down like the workload, and ``yardstick_units`` how many run before
each repetition: about a quarter of a repetition's time.

The CLI workloads pass the benchmark seed to the CLI's ``--seed`` (as
``SessionConfig.load(seed=...)``) mapped to a fixed width, so the report text
has the same length for every seed.
"""

from __future__ import annotations

import functools
import os
import random
import re
from fractions import Fraction

import numpy as np

import oracles


def cli_seed(seed):
    return 1_000_000 + seed % 1_000_000


class CliWorkload:
    """A config run through ``quantact.cli.run``, as the command line does."""

    name = None
    yardstick = "python"

    def config_text(self, seed):
        raise NotImplementedError

    def setup(self, seed, workdir):
        from quantact import cli
        self.cli = cli
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, self.name + ".cfg")
        with open(path, "w") as fh:
            fh.write(self.config_text(seed))
        self.cfg = cli.SessionConfig.load(path, seed=cli_seed(seed),
                                          out=os.path.join(workdir, "reports"))
        self.first_text = None

    def run_once(self):
        return self.cli.run(self.cfg)

    def check(self, output):
        status, text = output
        problems = []
        if status != 0:
            problems.append("exit status %d" % status)
        if self.first_text is None:
            self.first_text = text
            problems.extend(self.check_report(text))
        elif text != self.first_text:
            problems.append("report text differs between repetitions")
        report_path = os.path.join(self.cfg.out, self.cfg.task + ".txt")
        with open(report_path) as fh:
            if fh.read() != text:
                problems.append("report file differs from the returned text")
        return problems

    def check_report(self, text):
        raise NotImplementedError


class CohomologyC4(CliWorkload):
    """Twisted H^0..H^2 of the C4 rotation action per symbol order."""

    name = "cohomology_c4"
    yardstick_units = 20
    coeff_degree = 1
    max_order = 0

    def config_text(self, seed):
        return ("[session]\ntask = cohomology\norder = %d\n\n"
                "[action]\nbuiltin = rotations_c4\n\n"
                "[basis]\nmonomials = %d\n" % (self.max_order, self.coeff_degree))

    def check_report(self, text):
        found = {int(n): (int(h0), int(h1), int(h2)) for n, h0, h1, h2 in
                 re.findall(r"^order (\d+): H0=(\d+) H1=(\d+) H2=(\d+)$", text,
                            re.M)}
        expected = oracles.c4_cohomology(self.coeff_degree, self.max_order)
        if found != expected:
            return ["cohomology %r, expected %r" % (found, expected)]
        return []


class SolveC4(CliWorkload):
    """Order-n correction for the trivial C4 system: certificates and the
    cocycle basis."""

    name = "solve_c4"
    yardstick_units = 10
    coeff_degree = 2
    order = 2

    def config_text(self, seed):
        return ("[session]\ntask = mc-solve\norder = %d\n\n"
                "[action]\nbuiltin = rotations_c4\n\n"
                "[basis]\nmonomials = %d\n" % (self.order, self.coeff_degree))

    def check_report(self, text):
        problems = []
        for line in ("pass     right-hand side is twisted-closed [exact]",
                     "pass     correction equation solvable [exact]"):
            if line not in text.splitlines():
                problems.append("missing certificate %r" % line)
        kernel = re.findall(r"^kernel dimension = (\d+)$", text, re.M)
        expected = oracles.c4_solve_kernel(self.coeff_degree, self.order)
        if kernel != [str(expected)]:
            problems.append("kernel dimension %r, expected %d" % (kernel, expected))
        return problems


class BoostGrid(CliWorkload):
    """Grid realization of the Galilean boosts: unitarity and composition."""

    name = "boost_grid"
    yardstick = "numpy"
    yardstick_units = 6
    points = 256
    length = 10
    hbar = Fraction(1, 10)
    sigma = 1
    mass = 1
    packets = 3
    elements = 3
    tolerance = 1e-12

    def make_inputs(self, seed):
        """Packet centers and momenta, and boost velocities with distinct
        absolute values, so no product element is the identity."""
        rng = random.Random(seed)
        quarter = [Fraction(k, 2) for k in range(-2, 3)]
        twentieth = [Fraction(k, 20) for k in range(-4, 5)]
        self.centers = [(rng.choice(quarter), rng.choice(quarter))
                        for _ in range(self.packets)]
        self.momenta = [(rng.choice(twentieth), rng.choice(twentieth))
                        for _ in range(self.packets)]
        speeds = rng.sample(range(1, 5), self.elements)
        self.velocities = [Fraction(rng.choice((-1, 1)) * s, 20) for s in speeds]

    def config_text(self, seed):
        def pairs(points):
            return " ; ".join("%s,%s" % p for p in points)

        return ("[session]\ntask = verify-numeric\n\n"
                "[action]\nbuiltin = galilean\n\n"
                "[phase]\nexpr = m*v*x - m*v*v*t/2\n\n"
                "[grid]\ndim = 2\npoints = %d\nlength = %d\nhbar = %s\n\n"
                "[numeric]\nsigma = %d\ncenters = %s\nmomenta = %s\n"
                "elements = %s\nconstants = m:%d\nunitarity_tol = 1e-8\n"
                "representation_tol = 1e-7\ntail_tol = 1e-7\n"
                % (self.points, self.length, self.hbar, self.sigma,
                   pairs(self.centers), pairs(self.momenta),
                   " ; ".join(str(v) for v in self.velocities), self.mass))

    def setup(self, seed, workdir):
        self.make_inputs(seed)
        super().setup(seed, workdir)
        axis = oracles.grid_axes(self.points, self.length)
        self.t, self.x = np.meshgrid(axis, axis, indexing="ij")
        self.psis = [functools.partial(oracles.packet, center=[float(v) for v in c],
                                       momentum=[float(v) for v in p],
                                       sigma=self.sigma, hbar=float(self.hbar))
                     for c, p in zip(self.centers, self.momenta)]
        self.samples = [psi(self.t, self.x) for psi in self.psis]

    def check_report(self, text):
        n = len(self.velocities)
        checks = 1 + n + n * (n + 1) // 2
        if "result: PASS (%d checks)" % checks not in text:
            return ["report does not pass all %d checks" % checks]
        return self.check_applications()

    def check_applications(self):
        """Every boost the report uses, applied by quantact to every packet,
        against the closed form."""
        from quantact import actions, dga, expr, numfio
        action = actions.galilean_boosts()
        phase_expr = expr.parse("m*v*x - m*v*v*t/2", action.binding)
        phase = dga.PhaseCochain(
            action, 1, fn=lambda gs: phase_expr.substitute({"v": gs[0][0]}))
        grid = numfio.WaveGrid(2, self.points, self.length, float(self.hbar))
        vs = self.velocities
        used = sorted(set(vs) | {a + b for a in vs for b in vs})
        # gaussian() normalizes in the discrete L^2 norm, cell area delta^2
        delta = 2.0 * self.length / self.points
        problems = []
        for psi, sample, c, p in zip(self.psis, self.samples, self.centers,
                                     self.momenta):
            made = numfio.gaussian(grid, centers=[float(v) for v in c],
                                   sigma=self.sigma,
                                   momenta=[float(v) for v in p])
            err = oracles.relative_l2(made, sample / (np.linalg.norm(sample) * delta))
            if err > self.tolerance:
                problems.append("packet at %s differs by %.3e" % (c, err))
            for v in used:
                got = numfio.phase_system_apply(
                    grid, action, phase, action.group.element(v), sample,
                    consts={"m": self.mass})
                want = oracles.boost_closed_form(self.t, self.x, v, self.mass, psi)
                err = oracles.relative_l2(got, want)
                if err > self.tolerance:
                    problems.append("boost %s on packet %s: relative error %.3e"
                                    % (v, c, err))
        return problems


# ---------------------------------------------------------------------------
# graded-algebra identities


class AxiomsC4:
    """d o d = 0, the Leibniz rule and associativity of the graded star on
    seeded dense cochains over C4 at symbol order 3 (every tuple holds a
    nonzero symbol)."""

    name = "axioms_c4"
    yardstick = "python"
    yardstick_units = 10
    order = 3
    # one frequency multi-index per slot and two-term coefficients in a fixed
    # pattern, so every seed gives the same amount of work; the seed draws the
    # integer coefficients
    alphas = [[(0, 0)], [(0, 1)], [(1, 1)], [(2, 1)]]
    monomial_pairs = [((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (1, 1)),
                      ((0, 0), (1, 1)), ((1, 0), (1, 1)), ((0, 0), (0, 1))]
    values = (-3, -2, -1, 1, 2, 3)

    def setup(self, seed, workdir):
        from quantact import actions, dga
        self.dga = dga
        self.action = actions.cyclic_rotations(4)
        rng = random.Random(seed)
        self.a0 = self.cochain(rng, 0)
        self.a1, self.a2 = self.cochain(rng, 1), self.cochain(rng, 1)
        self.b = self.cochain(rng, 2)

    def symbol(self, rng):
        from quantact.expr import Expr
        from quantact.symbols import FormalSymbol, PolyXi
        x, y = Expr.var("x"), Expr.var("y")
        comps = []
        k = 0
        for slot in self.alphas:
            coeffs = {}
            for alpha in slot:
                e = Expr.zero()
                for a, b in self.monomial_pairs[k % len(self.monomial_pairs)]:
                    e = e + Expr.integer(rng.choice(self.values)) * x ** a * y ** b
                coeffs[alpha] = e
                k += 1
            comps.append(PolyXi(2, coeffs))
        return FormalSymbol(2, self.order, comps)

    def cochain(self, rng, degree):
        elems = self.action.group.elements()
        tuples = [()]
        for _ in range(degree):
            tuples = [t + (g,) for t in tuples for g in elems]
        return self.dga.Cochain(self.action, degree, self.order,
                                table={t: self.symbol(rng) for t in tuples})

    def run_once(self):
        dga = self.dga
        d, star = dga.d, dga.star_graded
        a0, a1, a2 = self.a0, self.a1, self.a2
        identities = {
            "d(d(a))": d(d(a1)),
            "d(d(b))": d(d(self.b)),
            # degree-1 a1: d(a1*a2) = (d a1)*a2 - a1*(d a2)
            "leibniz": d(star(a1, a2)).sub(
                star(d(a1), a2).add(star(a1, d(a2)).scale(-1))),
            # degrees 1, 0, 1: the twists over phi_g, the identity and phi_h
            "associativity": star(star(a1, a0), a2).sub(star(a1, star(a0, a2))),
        }
        return {name: dga.cochain_zero_report(c) for name, c in identities.items()}

    def check(self, output):
        problems = []
        for name, report in output.items():
            if not report.all_ok:
                problems.append("%s is not zero" % name)
            if any(item.kind != "exact" for item in report.items):
                problems.append("%s has a non-exact certificate" % name)
        return problems


WORKLOADS = {w.name: w for w in (CohomologyC4, SolveC4, AxiomsC4, BoostGrid)}
