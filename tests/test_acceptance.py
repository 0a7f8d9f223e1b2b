"""End-to-end acceptance checks with pinned tolerances and budgets.

Each test exercises one headline guarantee of the package, from the exact
graded-algebra axioms through the solver certificates down to the grid
realizations.  Bounds are fixed here and are not to be loosened.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from quantact.actions import (Diffeo, FiniteGroup, cyclic_rotations,
                              galilean_boosts, integer_quarter_turns,
                              sign_flip, trivial_action)
from quantact.dga import (Cochain, CoefficientBasis, PhaseCochain,
                          character_phase, cochain_zero_report,
                          cohomology_dims, d, delta_phase, exp_system,
                          gauge_report, mc_residual, representation_report,
                          solve_order, star_graded, trivial_system, twisted_d)
from quantact.expr import Expr, is_zero, parse
from quantact.numfio import (NumericAmplitude, WaveGrid,
                             asymptotic_consistency, gaussian, packet_gram,
                             phase_system_apply, representation_residual,
                             standard_product_residual, unitarity_residual)
from quantact.symbols import (AmplitudeSeries, FormalSymbol, PolyXi,
                              multi_indices)


def random_symbol(rng, dim, order, coords):
    comps = []
    for n in range(order + 1):
        coeffs = {}
        alphas = multi_indices(dim, n)
        for alpha in rng.sample(alphas, k=min(2, len(alphas))):
            e = Expr.zero()
            for _ in range(2):
                term = Expr.integer(rng.randint(-2, 2))
                for c in coords:
                    term = term * Expr.var(c) ** rng.randint(0, 1)
                e = e + term
            coeffs[alpha] = e
        comps.append(PolyXi(dim, coeffs))
    return FormalSymbol(dim, order, comps)


def random_cochain(rng, action, degree, order):
    table = {}
    tuples = [()]
    for _ in range(degree):
        tuples = [t + (g,) for t in tuples for g in action.group.elements()]
    for t in tuples:
        table[t] = random_symbol(rng, action.dim, order, action.coords)
    return Cochain(action, degree, order, table=table)


def assert_cochain_zero(c, rng=None):
    rep = cochain_zero_report(c, rng=rng)
    assert rep.all_ok, rep.render()


def cochain_is_zero(c):
    return all(c.value(gs).is_zero() for gs in c.tuples())


# ---------------------------------------------------------------------------
# 1. graded-algebra axioms on random cochains


def test_complex_axioms_hold_exactly_on_random_cochains():
    start = time.monotonic()
    action = cyclic_rotations(4)
    order = 3
    rng = random.Random(401)
    cochains = [random_cochain(rng, action, 1 + (k % 2), order)
                for k in range(20)]
    assert len([c for c in cochains if c.degree == 1]) == 10

    for a in cochains:
        assert_cochain_zero(d(d(a)))

    # d(a*b) = (da)*b + (-1)^{deg a} a*(db), mixed degrees
    for a, b in [(cochains[0], cochains[1]), (cochains[2], cochains[4]),
                 (cochains[3], cochains[5]), (cochains[6], cochains[8])]:
        sign = -1 if a.degree % 2 else 1
        lhs = d(star_graded(a, b))
        rhs = star_graded(d(a), b).add(star_graded(a, d(b)).scale(sign))
        assert_cochain_zero(lhs.sub(rhs))

    for a, b, c in [(cochains[0], cochains[2], cochains[4]),
                    (cochains[6], cochains[10], cochains[12]),
                    (cochains[8], cochains[14], cochains[1])]:
        lhs = star_graded(star_graded(a, b), c)
        rhs = star_graded(a, star_graded(b, c))
        assert_cochain_zero(lhs.sub(rhs))

    assert time.monotonic() - start <= 60.0


# ---------------------------------------------------------------------------
# 2. residual vanishing agrees with the representation property


def quarter_character(k):
    i = Expr.imag_unit()
    return [i ** ((k * g) % 4) for g in range(4)]


def order0_system(action, values):
    table = {(g,): FormalSymbol.from_scalar(2, 0, values[g])
             for g in action.group.elements()}
    return Cochain(action, 1, 0, table=table)


def test_residual_vanishes_iff_operators_compose():
    action = cyclic_rotations(4)
    i = Expr.imag_unit()
    q = parse("x + 2*y")

    def conjugate(values):
        out = []
        for g in action.group.elements():
            u_back = action.diffeo(g).pullback(q)
            out.append(Expr.exp(i * q) * values[g] * Expr.exp(-i * u_back))
        return out

    good = [quarter_character(k) for k in range(4)]
    good.append(conjugate(quarter_character(1)))

    flipped = quarter_character(1)
    flipped[2] = -flipped[2]
    scaled = quarter_character(2)
    scaled[1] = Expr.integer(2)
    nonscalar = quarter_character(0)
    nonscalar[3] = parse("x")
    swapped = quarter_character(3)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    # an extra phase factor that is not rotation invariant breaks composition
    phased = quarter_character(1)
    phased[1] = phased[1] * Expr.exp(i * parse("x"))
    bad = [flipped, scaled, nonscalar, swapped, phased]

    psis = [parse("x") ** a * parse("y") ** b
            for a in range(5) for b in range(5) if a + b <= 4]
    pairs = [(g1, g2) for g1 in action.group.elements()
             for g2 in action.group.elements()]

    verdicts = []
    for values in good + bad:
        a = order0_system(action, values)
        is_mc = cochain_is_zero(mc_residual(a))
        represents = representation_report(a, psis, pairs=pairs).all_ok
        assert is_mc == represents
        verdicts.append(is_mc)
    assert verdicts == [True] * 5 + [False] * 5


# ---------------------------------------------------------------------------
# 3. exponential systems solve the structure equation iff the phase is closed


def boost_phase():
    action = galilean_boosts()
    m, t, x = Expr.var("m"), Expr.var("t"), Expr.var("x")
    half = Expr.rational(1, 2)

    def fn(gs):
        v = gs[0][0]
        return m * v * x - half * m * v * v * t

    return action, PhaseCochain(action, 1, fn=fn)


def test_exponential_system_tracks_phase_closedness():
    action, s = boost_phase()
    closed = cochain_zero_report(delta_phase(s))
    assert closed.all_ok, closed.render()
    assert all(item.kind == "exact" for item in closed.items)
    assert_cochain_zero(mc_residual(exp_system(s, order=2)))

    x, t = Expr.var("x"), Expr.var("t")

    def perturbed(gs):
        v = gs[0][0]
        return s.value(gs) + v * x * x

    s2 = PhaseCochain(action, 1, fn=perturbed)
    defect = delta_phase(s2)
    assert not cochain_zero_report(defect).all_ok
    assert not cochain_zero_report(mc_residual(exp_system(s2, order=2))).all_ok

    # the defect in the exponent is exactly -2 v1 v2 t x + v1^2 v2 t^2
    g1 = action.group.symbolic_element(1)
    g2 = action.group.symbolic_element(2)
    v1, v2 = g1[0], g2[0]
    expected = Expr.integer(-2) * v1 * v2 * t * x + v1 * v1 * v2 * t * t
    assert is_zero(defect.value((g1, g2)) - expected).ok


# ---------------------------------------------------------------------------
# 4. invariant function times an additive character is a closed phase


def test_invariant_character_phase_is_closed_and_solves():
    action = integer_quarter_turns()
    inv = parse("x^2 + y^2")
    for n in (1, 2, -1):
        g = action.group.element(Fraction(n))
        assert is_zero(action.diffeo(g).pullback(inv) - inv).ok

    s = character_phase(action, inv)
    rep = cochain_zero_report(delta_phase(s))
    assert rep.all_ok, rep.render()
    assert all(item.kind == "exact" for item in rep.items)
    assert_cochain_zero(mc_residual(exp_system(s, order=1)))


# ---------------------------------------------------------------------------
# 5. coboundary shifts of the phase give gauge-equivalent systems


def test_coboundary_shift_is_gauge_equivalence():
    action, s = boost_phase()
    i = Expr.imag_unit()
    monoms = [parse(m) for m in
              ["1", "t", "x", "t*x", "t^2", "x^2"]]
    for trial in range(10):
        rng = random.Random(500 + trial)
        k = Expr.zero()
        for m in monoms:
            k = k + Expr.rational(rng.randint(-3, 3), rng.randint(1, 3)) * m
        kc = PhaseCochain(action, 0, table={(): k})
        dk = delta_phase(kc)
        s2 = s.add(dk)
        u = FormalSymbol.from_scalar(2, 0, Expr.exp(i * k))
        rep = gauge_report(exp_system(s), exp_system(s2), u, rng=rng)
        assert rep.all_ok, "trial %d:\n%s" % (trial, rep.render())


# ---------------------------------------------------------------------------
# 6. solver certificates: closed right-hand sides, reinsertable output


def test_solver_certifies_and_reinserts_on_c2():
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    p0 = trivial_system(action, 1)
    res = solve_order(action, p0, {}, 1, basis)
    assert res.rhs_closed and res.solved
    assert res.kernel_dim == 3
    for coc in res.cocycle_basis:
        assert_cochain_zero(mc_residual(p0.add(coc)))

    order = 2
    p0 = trivial_system(action, order)
    x = Expr.var("x")
    comps = [PolyXi.zero(1) for _ in range(order + 1)]
    comps[1] = PolyXi(1, {(0,): x})
    below = Cochain(action, 1, order,
                    table={(0,): FormalSymbol.zero(1, order),
                           (1,): FormalSymbol(1, order, comps)})
    res = solve_order(action, p0, {1: below}, 2, basis)
    assert res.rhs_closed and res.solved
    got = res.solution.value((1,)).comps[2].coeffs.get((0,), Expr.zero())
    assert is_zero(got - parse("1/2*x^2")).ok
    assert_cochain_zero(mc_residual(p0.add(below).add(res.solution)))


def test_solver_certifies_and_reinserts_on_c4():
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(["x", "y"], 2)
    assert basis.closure_report(action).all_ok

    p0 = trivial_system(action, 1)
    res = solve_order(action, p0, {}, 1, basis)
    assert res.rhs_closed and res.solved
    assert res.kernel_dim >= 2
    for coc in res.cocycle_basis:
        assert_cochain_zero(mc_residual(p0.add(coc)))

    # gauge-exact first order: guaranteed to extend within the basis span
    order = 2
    p0 = trivial_system(action, order)
    q = PolyXi(2, {(0, 0): Expr.var("x")})
    comps = [PolyXi.zero(2) for _ in range(order + 1)]
    comps[1] = q
    q0 = Cochain(action, 0, order,
                 table={(): FormalSymbol(2, order, comps)})
    below = twisted_d(p0, q0)
    res = solve_order(action, p0, {1: below}, 2, basis)
    assert res.rhs_closed and res.solved
    assert_cochain_zero(mc_residual(p0.add(below).add(res.solution)))


# ---------------------------------------------------------------------------
# 7. trivial action: dimensions split as scalar cohomology times multiplicity


def brute_scalar_ranks(group):
    size = group.size
    elems = group.elements()

    def tuples(k):
        out = [()]
        for _ in range(k):
            out = [t + (g,) for t in out for g in elems]
        return out

    def delta_matrix(k):
        cols = tuples(k)
        rows = tuples(k + 1)
        col_index = {t: j for j, t in enumerate(cols)}
        mat = [[Fraction(0)] * len(cols) for _ in rows]
        for i, t in enumerate(rows):
            mat[i][col_index[t[1:]]] += 1
            for pos in range(1, k + 1):
                merged = (t[:pos - 1] + (group.mult(t[pos - 1], t[pos]),)
                          + t[pos + 1:])
                mat[i][col_index[merged]] += (-1) ** pos
            mat[i][col_index[t[:k]]] += (-1) ** (k + 1)
        return mat

    def frac_rank(mat):
        mat = [row[:] for row in mat]
        nrows, ncols = len(mat), len(mat[0]) if mat else 0
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, nrows) if mat[i][col] != 0), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            inv = 1 / mat[r][col]
            mat[r] = [v * inv for v in mat[r]]
            for i in range(nrows):
                if i != r and mat[i][col] != 0:
                    c = mat[i][col]
                    mat[i] = [u - c * w for u, w in zip(mat[i], mat[r])]
            r += 1
        return r

    return [frac_rank(delta_matrix(k)) for k in range(3)]


@pytest.mark.parametrize("cyclic_order,max_degree", [(2, 1), (4, 0)])
def test_trivial_action_cohomology_splits(cyclic_order, max_degree):
    group = FiniteGroup.cyclic(cyclic_order)
    action = trivial_action(group, ["x"])
    basis = CoefficientBasis.monomials(["x"], max_degree)
    n_max = 3
    dims = cohomology_dims(action, basis, n_max=n_max)

    r0, r1, r2 = brute_scalar_ranks(group)
    size = group.size
    for n in range(n_max + 1):
        mult = len(multi_indices(1, n)) * len(basis)
        expected = {
            "H0": mult - r0 * mult,
            "H1": (size * mult - r1 * mult) - r0 * mult,
            "H2": (size * size * mult - r2 * mult) - r1 * mult,
        }
        assert dims[n] == expected
        assert dims[n]["H1"] == 0 and dims[n]["H2"] == 0


# ---------------------------------------------------------------------------
# 8. grid realization of the boosts is unitary and composes


def test_boost_quantization_unitary_on_fine_grid():
    start = time.monotonic()
    action, s = boost_phase()
    grid = WaveGrid(2, 256, 10.0, 0.1)
    consts = {"m": 1.0}
    psis = [gaussian(grid, centers=[0.0, 0.0], sigma=1.0, momenta=[0.0, 0.0]),
            gaussian(grid, centers=[1.0, -1.0], sigma=1.0,
                     momenta=[0.1, -0.05])]

    def plan_for(g):
        return lambda psi: phase_system_apply(grid, action, s, g, psi, consts=consts)

    pairs = [(Fraction(1, 5), Fraction(1, 10)),
             (Fraction(1, 10), Fraction(-3, 20)),
             (Fraction(-3, 20), Fraction(1, 5)),
             (Fraction(1, 4), Fraction(1, 4)),
             (Fraction(-1, 10), Fraction(-1, 5))]
    pairs = [(action.group.element(v1), action.group.element(v2))
             for v1, v2 in pairs]

    elements = []
    for g1, g2 in pairs:
        for g in (g1, g2):
            if g not in elements:
                elements.append(g)
    norms, gram = packet_gram(grid, psis)
    for g in elements:
        resid = unitarity_residual(grid, [plan_for(g)(p) for p in psis], norms, gram)
        assert resid <= 1e-8, "element %s: %.3e" % (g, resid)

    resid = max(representation_residual(grid, plan_for(g1), plan_for(action.mult(g1, g2)),
                                        [plan_for(g2)(p) for p in psis], psis, norms)
                for g1, g2 in pairs)
    assert resid <= 1e-7, "composition residual %.3e" % resid
    assert time.monotonic() - start <= 120.0


# ---------------------------------------------------------------------------
# 9. truncation error decays at the predicted rate; weight conventions differ


def shear_map_2d():
    x1, x2 = Expr.var("x1"), Expr.var("x2")
    h = Expr.rational(1, 2)
    return Diffeo(["x1", "x2"], [x1, x2 + x1 * h], [x1, x2 - x1 * h])


def trig_series(kind):
    w0, x1, x2 = Expr.var("w0"), Expr.var("x1"), Expr.var("x2")
    xi1, xi2 = Expr.var("xi1"), Expr.var("xi2")
    if kind == "first-order":
        return AmplitudeSeries(2, [xi1 * Expr.cos(w0 * x1),
                                   xi2 * Expr.sin(w0 * x2)])
    return AmplitudeSeries(2, [xi1 * xi2 * Expr.cos(w0 * x2),
                               xi2 * Expr.sin(w0 * x2),
                               xi1 * Expr.sin(w0 * x1)])


def packet_factory(kappa):
    # fixed true frequency: every dropped expansion slot costs one hbar power
    def make(grid):
        return gaussian(grid, centers=[0.0, 0.0], sigma=1.0,
                        momenta=[k * grid.hbar for k in kappa])
    return make


HBARS = [0.2, 0.1, 0.05, 0.025]
SLOPE_KWARGS = dict(consts={"w0": math.pi / 8.0})


def test_truncation_error_slope_meets_floor():
    fit = asymptotic_consistency(
        2, 64, 8.0, trig_series("first-order"), shear_map_2d(),
        packet_factory([1.5, 1.0]), HBARS, truncation=1, **SLOPE_KWARGS)
    assert fit.status == "fitted"
    assert fit.slope >= 1.8, "slope %.3f" % fit.slope


def test_slope_experiment_separates_weight_conventions():
    good = asymptotic_consistency(
        2, 64, 8.0, trig_series("mixed"), shear_map_2d(),
        packet_factory([1.5, 1.0]), HBARS, truncation=2,
        convention="multi", **SLOPE_KWARGS)
    assert good.status == "fitted" and good.slope >= 2.8

    off = asymptotic_consistency(
        2, 64, 8.0, trig_series("mixed"), shear_map_2d(),
        packet_factory([1.5, 1.0]), HBARS, truncation=2,
        convention="total", **SLOPE_KWARGS)
    assert off.status == "fitted"
    assert off.slope <= 2.5
    assert max(off.errors) > 1e-6


# ---------------------------------------------------------------------------
# 10. quadrature composition matches the symbolic product


def test_operator_composition_matches_product_symbol():
    grid = WaveGrid(1, 256, 10.0, 0.1)
    psi = gaussian(grid, centers=[0.3], sigma=0.9, momenta=[0.12])
    x1, xi1 = Expr.var("x1"), Expr.var("xi1")
    monoms = [Expr.one(), x1, xi1, x1 * xi1, x1 * x1, xi1 * xi1]
    for trial in range(5):
        rng = random.Random(1000 + trial)

        def rand_poly():
            e = Expr.zero()
            for m in monoms:
                e = e + Expr.integer(rng.randint(-2, 2)) * m
            return e

        a = NumericAmplitude(rand_poly(), ["x1"], ["xi1"])
        b = NumericAmplitude(rand_poly(), ["x1"], ["xi1"])
        resid = standard_product_residual(grid, a, b, psi)
        assert resid <= 1e-6, "trial %d: %.3e" % (trial, resid)
