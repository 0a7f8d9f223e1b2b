"""Cochain complex, Maurer-Cartan machinery, and the order-by-order solver."""

import itertools
import os
import random
import sys
from fractions import Fraction

import pytest
from int_first import assert_int_first

from quantact import dga, expr, opcalc
from quantact.actions import (BUILTIN_ACTIONS, ActionSpec, Diffeo, FiniteGroup,
                              check_action, cyclic_rotations,
                              galilean_boosts, heisenberg, sign_flip,
                              translations, trivial_action)
from quantact.cli import SessionConfig, run
from quantact.dga import (BasisEscapeError, Cochain, CoefficientBasis,
                          PhaseCochain, _decompose_symbol_slot, _lift_leading,
                          _matrix_of_twisted_d, _slot_maps, character_phase,
                          cochain_zero_report, cohomology_dims, d, delta_phase,
                          exp_system, gauge_report, gauge_residual, mc_residual,
                          representation_report, solve_order, star_graded,
                          trivial_system, twisted_d)
from quantact.expr import Expr, GaussRat, Poly, is_zero, parse
from quantact.linalg import SparseMatrix, rank, solve
from quantact.opcalc import FormalOperator, compose, star
from quantact.symbols import FormalSymbol, PolyXi, multi_indices

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:
    hypothesis = None

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def random_symbol(rng, dim, order, coords):
    comps = []
    for n in range(order + 1):
        coeffs = {}
        for alpha in rng.sample(multi_indices(dim, n), k=min(2, len(multi_indices(dim, n)))):
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


def assert_cochain_zero(c):
    rep = cochain_zero_report(c)
    assert rep.all_ok, rep.render()


# ---------------------------------------------------------------------------
# complex structure


def test_differential_squares_to_zero():
    rng = random.Random(7)
    action = cyclic_rotations(4)
    for degree in (1, 2):
        a = random_cochain(rng, action, degree, order=1)
        assert_cochain_zero(d(d(a)))


def test_degree_zero_differential_is_zero_map():
    action = cyclic_rotations(2)
    a = Cochain.unit(action, order=1)
    assert_cochain_zero(d(a))


def test_graded_leibniz_rule():
    # d(a*b) = (da)*b + (-1)^k a*(db) for k = deg a
    rng = random.Random(11)
    action = cyclic_rotations(4)
    a = random_cochain(rng, action, 1, order=1)
    b = random_cochain(rng, action, 1, order=1)
    lhs = d(star_graded(a, b))
    rhs = star_graded(d(a), b).add(star_graded(a, d(b)).scale(-1))
    assert_cochain_zero(lhs.sub(rhs))


def test_graded_leibniz_degree_zero_left_factor():
    rng = random.Random(13)
    action = cyclic_rotations(2)
    a = random_cochain(rng, action, 0, order=1)
    b = random_cochain(rng, action, 1, order=1)
    lhs = d(star_graded(a, b))
    rhs = star_graded(d(a), b).add(star_graded(a, d(b)))
    assert_cochain_zero(lhs.sub(rhs))


FINITE_BUILTINS = sorted(name for name, make in BUILTIN_ACTIONS.items()
                         if make().is_finite)


def _drawn_cochain(draw, action, degree, order, elements=None):
    """Cochain on the tuples of ``elements`` (default: the whole finite
    group) whose slots hold small integer combinations of 1, the
    coordinates and exp(i*first coordinate), each slot drawn on its own."""
    atoms = [Expr.one()] + [Expr.var(c) for c in action.coords]
    atoms.append(Expr.exp(Expr.imag_unit() * Expr.var(action.coords[0])))
    coefficient = st.lists(st.tuples(st.sampled_from(atoms), st.integers(-2, 2)),
                           min_size=1, max_size=2)
    if elements is None:
        elements = action.group.elements()
    table = {}
    for t in itertools.product(elements, repeat=degree):
        comps = []
        for n in range(order + 1):
            comps.append(PolyXi(action.dim, {
                alpha: sum((a * c for a, c in draw(coefficient)), Expr.zero())
                for alpha in multi_indices(action.dim, n) if draw(st.booleans())}))
        table[t] = FormalSymbol(action.dim, order, comps)
    return Cochain(action, degree, order, table=table)


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
@pytest.mark.parametrize("degrees", [(0, 1), (1, 1)], ids=["deg01", "deg11"])
@pytest.mark.parametrize("name", FINITE_BUILTINS)
def test_graded_leibniz_rule_on_drawn_cochains(name, degrees):
    # d(a*b) = (da)*b + (-1)^k a*(db) for k = deg a, on every finite builtin
    action = BUILTIN_ACTIONS[name]()

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        a, b = (_drawn_cochain(data.draw, action, k, 1) for k in degrees)
        lhs = d(star_graded(a, b))
        rhs = star_graded(d(a), b).add(star_graded(a, d(b)).scale((-1) ** degrees[0]))
        assert_cochain_zero(lhs.sub(rhs))

    check()


def sign_representation():
    """C_2 system a_e = 1, a_g = -1 over the sign flip: exactly Maurer-Cartan."""
    action = sign_flip()
    one = FormalSymbol.one(1, 1)
    table = {(0,): one, (1,): one.scale(Expr.integer(-1))}
    return action, Cochain(action, 1, 1, table=table)


def test_twisted_differential_squares_to_zero():
    rng = random.Random(17)
    action, p0 = sign_representation()
    assert_cochain_zero(mc_residual(p0))
    for degree in (0, 1):
        a = random_cochain(rng, action, degree, order=1)
        assert_cochain_zero(twisted_d(p0, twisted_d(p0, a), check=False))


def test_twist_of_itself_gives_curvature():
    # d_{P0} P0 = P0 * P0 for Maurer-Cartan P0
    _, p0 = sign_representation()
    assert_cochain_zero(twisted_d(p0, p0).sub(star_graded(p0, p0)))


def test_twisted_d_rejects_non_mc_twist():
    action = sign_flip()
    one = FormalSymbol.one(1, 1)
    bad = Cochain(action, 1, 1, table={(0,): one,
                                       (1,): one.scale(Expr.integer(2))})
    with pytest.raises(ValueError):
        twisted_d(bad, Cochain.unit(action, 1))


# ---------------------------------------------------------------------------
# Maurer-Cartan <-> representation


def quarter_turn_character(values):
    action = cyclic_rotations(4)
    table = {}
    for j in range(4):
        table[(j,)] = FormalSymbol.from_scalar(2, 0, values[j])
    return action, Cochain(action, 1, 0, table=table)


def test_character_system_is_mc_and_represents():
    i = Expr.imag_unit()
    action, a = quarter_turn_character([Expr.one(), i, i * i, i * i * i])
    assert_cochain_zero(mc_residual(a))
    psis = [parse("x"), parse("x*y + 2*y"), Expr.exp(Expr.imag_unit() * parse("x + y"))]
    rep = representation_report(a, psis)
    assert rep.all_ok, rep.render()


def test_broken_system_fails_mc_and_representation_at_same_pairs():
    i = Expr.imag_unit()
    action, a = quarter_turn_character([Expr.one(), i, Expr.one(), -i])
    res = mc_residual(a)
    mc_fail = {gs for gs in res.tuples() if not res.value(gs).is_zero()}
    assert mc_fail, "perturbation should break the Maurer-Cartan equation"

    rep = representation_report(a, [parse("x")])
    rep_fail = {item.name for item in rep.items if not item.ok}
    expected = {"pair %s" % ("(" + ", ".join(action.group.labels[g] for g in gs) + ")")
                for gs in mc_fail}
    assert rep_fail == expected


# ---------------------------------------------------------------------------
# phase cochains


def galilean_free_phase():
    """S_v = m v x - m v^2 t / 2, the free-particle boost phase."""
    action = galilean_boosts()
    m = Expr.var("m")
    t, x = Expr.var("t"), Expr.var("x")
    half = Expr.rational(1, 2)

    def fn(gs):
        v = gs[0][0]
        return m * v * x - half * m * v * v * t

    return action, PhaseCochain(action, 1, fn=fn)


def test_galilean_phase_is_exact_cocycle():
    action, s = galilean_free_phase()
    rep = cochain_zero_report(delta_phase(s))
    assert rep.all_ok, rep.render()
    assert all(item.kind == "exact" for item in rep.items[:1])


def test_galilean_exponential_is_maurer_cartan():
    action, s = galilean_free_phase()
    a = exp_system(s)
    rep = cochain_zero_report(mc_residual(a))
    assert rep.all_ok, rep.render()


def test_perturbed_galilean_phase_defect():
    # adding v*x^2 to the phase produces the defect -2 v1 v2 t x + v1^2 v2 t^2
    action, s = galilean_free_phase()
    x, t = Expr.var("x"), Expr.var("t")

    def perturbed(gs):
        v = gs[0][0]
        return s.value(gs) + v * x * x

    s2 = PhaseCochain(action, 1, fn=perturbed)
    g1 = action.group.symbolic_element(1)
    g2 = action.group.symbolic_element(2)
    v1, v2 = g1[0], g2[0]
    got = delta_phase(s2).value((g1, g2))
    expected = Expr.integer(-2) * v1 * v2 * t * x + v1 * v1 * v2 * t * t
    assert is_zero(got - expected).ok


def test_delta_phase_squares_to_zero():
    action = heisenberg()
    x, y, z = (Expr.var(c) for c in ["x", "y", "z"])

    def fn(gs):
        al, be, ga = gs[0]
        return al * x * y + be * z + ga * x

    s = PhaseCochain(action, 1, fn=fn)
    rep = cochain_zero_report(delta_phase(delta_phase(s)))
    assert rep.all_ok, rep.render()

    k = PhaseCochain(action, 0, table={(): x * x + z})
    rep0 = cochain_zero_report(delta_phase(delta_phase(k)))
    assert rep0.all_ok, rep0.render()


def test_phase_cochains_share_the_cochain_algebra():
    # add, sub and scale are the Expr arithmetic of the values, on a
    # parametric and on a finite phase cochain
    x, t = Expr.var("x"), Expr.var("t")
    boosts = galilean_boosts()
    flip = sign_flip()
    pairs = [(character_phase(boosts, t), character_phase(boosts, x * t)),
             (PhaseCochain(flip, 1, table={(0,): x, (1,): x * x + 1}),
              PhaseCochain(flip, 1, table={(0,): -x, (1,): Expr.integer(3)}))]
    for s, r in pairs:
        for gs in dga.test_tuples(s.action, 1):
            u, v = s.value(gs), r.value(gs)
            assert s.add(r).value(gs) == u + v
            assert s.sub(r).value(gs) == u - v
            assert s.scale(Fraction(-3, 2)).value(gs) == u * Fraction(-3, 2)


def test_phase_cocycle_zero_report_lines():
    # the lines and certificate kinds of the former phase-only report
    s = character_phase(galilean_boosts(), Expr.var("t"))
    rep = cochain_zero_report(delta_phase(s))
    assert [(i.name, i.ok, i.kind) for i in rep.items] == [
        ("zero at ((v__1), (v__2))", True, "exact"),
        ("zero at ((2), (-7/2))", True, "exact"),
        ("zero at ((-7/2), (4))", True, "exact"),
        ("zero at ((4), (2))", True, "exact"),
        ("zero at ((2), (7/2))", True, "exact")]

    # S_g = K o phi_g^{-1} - K for K = x^3 + x on the sign flip
    x = Expr.var("x")
    f = PhaseCochain(sign_flip(), 1, table={(0,): 0, (1,): -2 * x ** 3 - 2 * x})
    rep = cochain_zero_report(delta_phase(f))
    assert [(i.name, i.ok, i.kind) for i in rep.items] == [
        ("zero at (e, e)", True, "exact"), ("zero at (e, g1)", True, "exact"),
        ("zero at (g1, e)", True, "exact"), ("zero at (g1, g1)", True, "exact")]


def test_phase_cochain_missing_tuple_is_a_key_error():
    action = sign_flip()
    s = PhaseCochain(action, 1, table={(0,): Expr.var("x")})
    with pytest.raises(KeyError):
        s.value((1,))
    assert is_zero(s.value((0,)) - Expr.var("x")).ok
    assert isinstance(s, Cochain)


def test_central_character_defect_on_heisenberg():
    # S_g = ga * (x^2 + y^2) has coboundary -(al2 be1 - al1 be2)/2 * (x^2+y^2)
    action = heisenberg()
    x, y = Expr.var("x"), Expr.var("y")
    inv = x * x + y * y
    s = character_phase(action, inv, character=lambda g: g[2])
    g1 = action.group.symbolic_element(1)
    g2 = action.group.symbolic_element(2)
    got = delta_phase(s).value((g1, g2))
    al1, be1 = g1[0], g1[1]
    al2, be2 = g2[0], g2[1]
    expected = Expr.rational(-1, 2) * (al2 * be1 - al1 * be2) * inv
    assert is_zero(got - expected).ok


def test_additive_character_phase_is_cocycle():
    action = heisenberg()
    x, y = Expr.var("x"), Expr.var("y")
    s = character_phase(action, x * x + y * y, character=lambda g: g[0])
    rep = cochain_zero_report(delta_phase(s))
    assert rep.all_ok, rep.render()


def test_gauge_equivalence_by_coboundary():
    # u = e^{iK} intertwines e^{iS} with e^{i(S + delta K)}
    action, s = galilean_free_phase()
    x = Expr.var("x")
    k = PhaseCochain(action, 0, table={(): x * x})
    dk = delta_phase(k)
    s2 = s.add(dk)
    a = exp_system(s)
    b = exp_system(s2)
    u = FormalSymbol.from_scalar(2, 0, Expr.exp(Expr.imag_unit() * x * x))
    rep = gauge_report(a, b, u)
    assert rep.all_ok, rep.render()


# ---------------------------------------------------------------------------
# coefficient bases


def test_basis_decompose_and_escape():
    basis = CoefficientBasis.monomials(["x"], 2)
    coords = basis.decompose(parse("3*x^2 - 1/2*x"))
    combined = basis.combine(coords)
    assert is_zero(combined - parse("3*x^2 - 1/2*x")).ok
    with pytest.raises(BasisEscapeError):
        basis.decompose(parse("x^3"))
    with pytest.raises(BasisEscapeError):
        basis.decompose(Expr.exp(Expr.var("x")))


def test_basis_decomposes_over_non_unit_complex_pivots():
    # cleared of denominators, the first element pivots at x on 5 + 10i; no
    # pivot of this elimination is a unit, yet the coordinates are exact
    basis = CoefficientBasis([parse("(1 + 2*i)*x - y/5"), parse("x/3 + i*y"),
                              parse("(2 - i)*x*y + y/2 + x^2/3")])
    rng = random.Random(3)
    for _ in range(10):
        coords = {j: GaussRat(Fraction(rng.randint(-6, 6), rng.randint(1, 7)),
                              Fraction(rng.randint(-6, 6), rng.randint(1, 7))).key()
                  for j in range(3)}
        coords = {j: c for j, c in coords.items() if c != (0, 0)}
        e = basis.combine(coords)
        assert basis.decompose(e) == coords
        _assert_int_first_coords(basis.decompose(e))
        assert is_zero(basis.combine(basis.decompose(e)) - e).ok
    # x*y lies in the monomials of the basis, but not in its span
    with pytest.raises(BasisEscapeError):
        basis.decompose(parse("x*y"))
    with pytest.raises(BasisEscapeError):
        basis.decompose(parse("x/3 + i*y + x^2"))


def test_basis_rejects_dependent_exprs():
    with pytest.raises(ValueError):
        CoefficientBasis([parse("x"), parse("2*x")])


def test_basis_closure_under_action():
    flip = sign_flip()
    good = CoefficientBasis.monomials(["x"], 2)
    assert good.closure_report(flip).all_ok
    shift = translations(1)
    bad = CoefficientBasis([parse("x1")])
    assert not bad.closure_report(shift).all_ok


# ---------------------------------------------------------------------------
# order-by-order solving


def test_first_order_cocycles_frozen_dimension():
    # sign flip, trivial leading term, coefficients in span{1, x, x^2}:
    # the order-1 cocycle space is 3-dimensional
    # (odd multiplier part: x; even frequency part: 1, x^2).
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    p0 = trivial_system(action, 1)
    res = solve_order(action, p0, {}, 1, basis)
    assert res.solved
    assert res.rhs_closed
    assert res.kernel_dim == 3
    assert res.solution.value((1,)).is_zero()

    for coc in res.cocycle_basis:
        v = coc.value((1,)).comps[1]
        f0 = v.coeffs.get((0,), Expr.zero())
        f1 = v.coeffs.get((1,), Expr.zero())
        flip = {"x": -Expr.var("x")}
        assert is_zero(f0.substitute(flip) + f0).ok   # odd
        assert is_zero(f1.substitute(flip) - f1).ok   # even
        # re-insertion: 1 + hbar * X solves the Maurer-Cartan equation
        system = p0.add(coc)
        assert cochain_zero_report(mc_residual(system)).all_ok


def test_second_order_correction_solved_and_reinserted():
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    order = 2
    p0 = trivial_system(action, order)
    x = Expr.var("x")

    zero1 = FormalSymbol.zero(1, order)
    comps = [PolyXi.zero(1) for _ in range(order + 1)]
    comps[1] = PolyXi(1, {(0,): x})
    x1 = Cochain(action, 1, order, table={(0,): zero1,
                                          (1,): FormalSymbol(1, order, comps)})

    res = solve_order(action, p0, {1: x1}, 2, basis)
    assert res.solved
    assert res.rhs_closed

    got = res.solution.value((1,)).comps[2].coeffs.get((0,), Expr.zero())
    assert is_zero(got - parse("1/2*x^2")).ok

    system = p0.add(x1).add(res.solution)
    assert cochain_zero_report(mc_residual(system)).all_ok


def test_engineered_obstruction_is_reported():
    # the coboundary of an identity-supported cochain is closed but lies
    # outside the normalized image: the solver must flag it
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    p0 = trivial_system(action, 1)
    x = Expr.var("x")

    comps = [PolyXi.zero(1), PolyXi(1, {(0,): x})]
    y = Cochain(action, 1, 1, table={(0,): FormalSymbol(1, 1, comps),
                                     (1,): FormalSymbol.zero(1, 1)})
    rhs = twisted_d(p0, y, check=False)

    res = solve_order(action, p0, {}, 1, basis, rhs_cochain=rhs)
    assert not res.solved
    assert res.rhs_closed
    assert res.obstruction is not None
    ob = res.obstruction.value((0, 0)).comps[1].coeffs.get((0,), Expr.zero())
    assert is_zero(ob - x).ok


def test_solve_order_requires_finite_group():
    action = galilean_boosts()
    basis = CoefficientBasis.monomials(["t", "x"], 1)
    with pytest.raises(ValueError):
        solve_order(action, None, {}, 1, basis)


# ---------------------------------------------------------------------------
# cohomology dimensions


def brute_scalar_ranks(group):
    """Ranks of the standard scalar bar differentials d0, d1, d2 over Q."""
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
                merged = t[:pos - 1] + (group.mult(t[pos - 1], t[pos]),) + t[pos + 1:]
                mat[i][col_index[merged]] += (-1) ** pos
            mat[i][col_index[t[:k]]] += (-1) ** (k + 1)
        return mat

    def frac_rank(mat):
        mat = [row[:] for row in mat]
        nrows = len(mat)
        ncols = len(mat[0]) if nrows else 0
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
                    mat[i] = [a - c * b for a, b in zip(mat[i], mat[r])]
            r += 1
        return r

    return [frac_rank(delta_matrix(k)) for k in range(3)]


@pytest.mark.parametrize("cyclic_order", [2, 4])
def test_cohomology_matches_scalar_brute_force(cyclic_order):
    group = FiniteGroup.cyclic(cyclic_order)
    coords = ["x"]
    action = trivial_action(group, coords)
    basis = CoefficientBasis.monomials(coords, 1)
    n_max = 1
    dims = cohomology_dims(action, basis, n_max=n_max)

    r0, r1, r2 = brute_scalar_ranks(group)
    size = group.size
    for n in range(n_max + 1):
        mult = len(multi_indices(1, n)) * len(basis)
        c0, c1, c2 = mult, size * mult, size * size * mult
        expected = {
            "H0": c0 - r0 * mult,
            "H1": (c1 - r1 * mult) - r0 * mult,
            "H2": (c2 - r2 * mult) - r1 * mult,
        }
        assert dims[n] == expected
        # finite group, rational coefficients: higher cohomology vanishes
        assert dims[n]["H1"] == 0 and dims[n]["H2"] == 0
        assert dims[n]["H0"] == mult


def test_cohomology_with_sign_flip_action():
    # nontrivial action: invariants of x -> -x in span{1, x, x^2} are 1, x^2;
    # H0 at order n counts invariant (coefficient, frequency) pairs
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    dims = cohomology_dims(action, basis, n_max=1)
    # order 0: invariant coefficients only: {1, x^2}
    assert dims[0] == {"H0": 2, "H1": 0, "H2": 0}
    # order 1: invariant span of (f0, f1 xi) under simultaneous flip:
    # f0 even (2) + f1 odd (1) = 3
    assert dims[1] == {"H0": 3, "H1": 0, "H2": 0}


def test_cohomology_with_an_explicit_twist():
    # the order-0 twist is lifted to every symbol order; the trivial twist
    # given explicitly must reproduce the default
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    dims = cohomology_dims(action, basis, p0=trivial_system(action, 0), n_max=1)
    assert dims == cohomology_dims(action, basis, n_max=1)


def test_star_graded_never_composes_diffeos(monkeypatch):
    rng = random.Random(3)
    action = cyclic_rotations(4)
    a = random_cochain(rng, action, 1, order=1)
    b = random_cochain(rng, action, 1, order=1)

    def refuse(phi1, phi2):
        raise AssertionError("star must not compose diffeomorphisms")

    monkeypatch.setattr("quantact.opcalc.compose_diffeo", refuse)
    prod = star_graded(a, b)
    elems = action.group.elements()
    values = {(g1, g2): prod.value((g1, g2)) for g1 in elems for g2 in elems}
    monkeypatch.undo()
    for (g1, g2), v in values.items():
        assert any(comp.coeffs for comp in v.comps)
        ref = compose(FormalOperator(a.value((g1,)), action.diffeo(g1)),
                      FormalOperator(b.value((g2,)), action.diffeo(g2))).symbol
        assert v == ref


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
@pytest.mark.parametrize("name", ["rotations_c2", "rotations_c4", "translations_2d"])
def test_star_graded_matches_a_fresh_star_on_every_tuple(name):
    # star_graded keeps one carrier table per right tuple for the life of the
    # product; every value must be the star of a call with a table of its own.
    # A parameter action is drawn on the tuples of two sampled elements
    action = BUILTIN_ACTIONS[name]()
    elements = (action.group.elements() if action.is_finite
                else action.sample_elements(random.Random(2), 2))

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data(), st.integers(0, 2), st.integers(0, 2),
                      st.integers(0, 2))
    def check(data, k, l, order):
        hypothesis.assume(len(elements) ** (k + l) <= 16)
        a, b = (_drawn_cochain(data.draw, action, deg, order, elements)
                for deg in (k, l))
        prod = star_graded(a, b)
        for gs in itertools.product(elements, repeat=k + l):
            left, right = gs[:k], gs[k:]
            fresh = star(a.value(left), action.product_diffeo(left),
                         b.value(right), action.product_diffeo(right))
            assert prod.value(gs) == fresh, gs

    check()


def _record_carrier_tables(monkeypatch):
    """Wrap ``opcalc._product`` to record (carrier table, right operand k,
    phi2) of each call."""
    tables = []
    real = opcalc._product

    def recording(p, phi1, k, phi2, carriers=None):
        tables.append((carriers, k, phi2))
        return real(p, phi1, k, phi2, carriers)

    monkeypatch.setattr(opcalc, "_product", recording)
    return tables


def test_star_graded_builds_carriers_once_per_right_tuple(monkeypatch):
    # a1 * a2 on C4 at order 3: 16 pairs (g1, g2), and a2(g2) over phi_g2 is
    # the right operand of four of them, so carriers for 4 right tuples
    rng = random.Random(5)
    action = cyclic_rotations(4)
    a1, a2 = (random_cochain(rng, action, 1, order=3) for _ in range(2))
    pairs = list(itertools.product(action.group.elements(), repeat=2))
    steps = _count_calls(monkeypatch, opcalc, "_carrier_step")
    for g1, g2 in pairs:
        star(a1.value((g1,)), action.diffeo(g1), a2.value((g2,)), action.diffeo(g2))
    fresh_steps = len(steps)
    del steps[:]
    tables = _record_carrier_tables(monkeypatch)
    prod = star_graded(a1, a2)
    for gs in pairs:
        prod.value(gs)
    assert len(tables) == 16
    shared = {id(t): t for t, _, _ in tables}
    assert len(shared) == 4
    # a table serves one right operand: a2(g2) over phi_g2
    assert len({(id(t), id(k), id(phi2)) for t, k, phi2 in tables}) == 4
    # each carrier is one step from the one below it, made once per table
    assert len(steps) == sum(1 for t in shared.values() for _, _, alpha in t
                             if any(alpha))
    assert 0 < len(steps) < fresh_steps


def test_gauge_residual_shares_the_carriers_of_u(monkeypatch):
    # u over the identity is the right operand of the left star at every g;
    # the right stars, u * b(g) over phi_g, each have their own operand
    rng = random.Random(9)
    action = cyclic_rotations(4)
    a, b = (random_cochain(rng, action, 1, order=2) for _ in range(2))
    u = random_symbol(rng, action.dim, 2, action.coords)
    tables = _record_carrier_tables(monkeypatch)
    res = gauge_residual(a, b, u)
    for g in action.group.elements():
        res.value((g,))
    assert len(tables) == 8
    assert [t for t, _, _ in tables].count(None) == 4
    assert len({(id(t), id(k), id(phi2)) for t, k, phi2 in tables
                if t is not None}) == 1


def test_slot_maps_share_one_carrier_table_per_h(monkeypatch):
    # R = u_alpha star P0(h) over (id, phi_h): P0(h) over phi_h is the
    # right operand for every alpha.  L makes no star product
    action = cyclic_rotations(4)
    p0 = _character_twist(action, 2)
    basis = CoefficientBasis.monomials(action.coords, 1)
    monkeypatch.setattr(dga, "star", lambda p, phi1, k, phi2, carriers=None:
                        star(p, phi1, k, phi2))
    fresh_steps = _count_calls(monkeypatch, opcalc, "_carrier_step")
    fresh = _slot_maps(action, p0, 2, basis)
    monkeypatch.undo()
    steps = _count_calls(monkeypatch, opcalc, "_carrier_step")
    tables = _record_carrier_tables(monkeypatch)
    assert _slot_maps(action, p0, 2, basis) == fresh
    hs, alphas = 4, len(multi_indices(2, 2))
    assert len(tables) == hs * alphas
    shared = {id(t): t for t, _, _ in tables}
    assert len(shared) == hs
    # a table serves one right operand, and each carrier is one step, made once
    assert len({(id(t), id(k), id(phi2)) for t, k, phi2 in tables}) == hs
    assert len(steps) == sum(1 for t in shared.values() for _, _, alpha in t
                             if any(alpha)) == hs * 5
    # a fresh table per alpha builds the chain below alpha again: 1 + 1 + 2 + 2 + 2
    assert len(fresh_steps) == hs * 8


def test_identical_products_make_equal_kernel_work(monkeypatch):
    # the name registry of expr keeps no result: two identical products, one
    # after the other, make the same Poly.mul and expr._mac calls.
    # Each has its own action, since a Diffeo keeps its pullback images
    counts = []
    for _ in range(2):
        rng = random.Random(5)
        action = cyclic_rotations(4)
        a1, a2 = (random_cochain(rng, action, 1, order=2) for _ in range(2))
        muls = _count_calls(monkeypatch, Poly, "mul")
        macs = _count_calls(monkeypatch, expr, "_mac")
        prod = star_graded(a1, a2)
        for gs in itertools.product(action.group.elements(), repeat=2):
            prod.value(gs)
        counts.append((len(muls), len(macs)))
        monkeypatch.undo()
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_cochain_kernels_build_no_gaussrat(monkeypatch):
    # a Poly holds (re, im) pairs and an Accumulator hands its dict over as
    # the Poly: one value of star_graded and one of d on C4 cochains, and
    # Poly.subs, diff and mul on canonical operands with Fraction parts,
    # construct no GaussRat; const_value, an API edge, builds one
    rng = random.Random(7)
    action = cyclic_rotations(4)
    a1, a2 = (random_cochain(rng, action, 1, order=2) for _ in range(2))
    g = action.group.elements()[1]
    p, q = parse("3*x^2*y - 1/2*x + 2*i*exp(x)").poly, parse("x - 2*y + 1/3").poly
    mapping = {"x": parse("y + 1/2").poly, "y": parse("2*x").poly}
    c = parse("1/3 + 2*i")
    made = _count_calls(monkeypatch, GaussRat, "__init__")
    star_graded(a1, a2).value((g, g))
    d(a1).value((g, g))
    p.subs(mapping, {}), p.diff("x"), p.mul(q)
    by_kernels = len(made)
    c.const_value()
    assert (by_kernels, len(made)) == (0, 1)


def test_cochain_sums_make_no_poly_sums_and_read_each_leaf_once(monkeypatch):
    # every sum in the cochain algebra adds into one accumulator per output
    # coefficient: the star products, the faces of d and the flattened
    # Leibniz difference make no Poly.add or Poly.sub call.  Flattening stops
    # at d and star_graded: the difference reads each of its three leaves
    # once per tuple, never the combinations nested in it, and the stars are
    # those of the cached products, 16 for d(a1*a2) and 64 for each other
    rng = random.Random(3)
    action = cyclic_rotations(4)
    a1, a2 = (random_cochain(rng, action, 1, order=2) for _ in range(2))

    def leibniz():
        left = d(star_graded(a1, a2))
        first, second = star_graded(d(a1), a2), star_graded(a1, d(a2))
        inner = [second.scale(-1)]
        inner.append(first.add(inner[0]))
        return left.sub(inner[1]), (left, first, second), inner

    tuples = list(itertools.product(action.group.elements(), repeat=3))
    warm, _, _ = leibniz()
    for gs in tuples:   # the maps keep the pullback images they meet
        warm.value(gs)
    adds, subs = _count_calls(monkeypatch, Poly, "add"), _count_calls(monkeypatch, Poly, "sub")
    stars = _count_calls(monkeypatch, dga, "star")
    reads, real_value = [], Cochain.value
    monkeypatch.setattr(Cochain, "value",
                        lambda self, gs=(): reads.append(id(self)) or real_value(self, gs))
    product = star_graded(a1, a2)
    for gs in itertools.product(action.group.elements(), repeat=2):
        product.value(gs)
    assert len(stars) == 16
    diff, leaves, inner = leibniz()
    stars.clear()
    for gs in tuples:
        diff.value(gs)
    assert adds == subs == [] and len(stars) == 144
    assert [reads.count(id(c)) for c in leaves + tuple(inner)] == [64, 64, 64, 0, 0]
    assert_cochain_zero(diff)


def test_a_combination_with_a_tree_term_keeps_the_nested_arithmetic():
    # a coefficient with a quotient tree is computed as add, sub and scale
    # nested it, by the symbol operators: the same tree and text, so the same
    # sampled certificate; the canonical slot sums in one accumulator
    action, x = sign_flip(), Expr.var("x")

    def cochain(c):
        return Cochain(action, 1, 1, table={(g,): FormalSymbol(1, 1, [
            PolyXi(1, {(0,): c * (g + 2)}), PolyXi(1, {(1,): x * (g + 1)})]) for g in (0, 1)})

    a, b, c = cochain(x), cochain(Expr.one() / (x * x + 1)), cochain(x + 2)
    third = Fraction(1, 3)
    for combo, nested in ((a.sub(b.add(c.scale(-1))), lambda u, v, w: u - (v + w * -1)),
                          (a.add(b).scale(third), lambda u, v, w: (u + v) * third)):
        for gs in ((0,), (1,)):
            got, want = combo.value(gs), nested(a.value(gs), b.value(gs), c.value(gs))
            assert repr(got) == repr(want) and not got.comps[0].coefficient((0,)).is_canonical
            assert cochain_zero_report(combo.sub(combo)).items[0].kind == "probabilistic"


def test_slot_maps_at_high_order_skip_empty_slots(monkeypatch):
    # a unit symbol holds one nonempty slot of order + 1, and a star walks
    # only nonempty components: at order 40 on sign_flip each of the 41
    # stars builds one shared empty PolyXi and one with its product, each
    # unit symbol one shared empty slot, and no empty slot is zero-tested
    action, n = sign_flip(), 40
    basis = CoefficientBasis.monomials(action.coords, 0)
    p0 = trivial_system(action, n)
    counts = [_count_calls(monkeypatch, PolyXi, name) for name in ("zero", "unchecked", "is_zero")]
    _slot_maps(action, p0, n, basis, True)
    assert [len(c) for c in counts] == [n + 1, 2 * (n + 1), 0]


def _decompose_by_solve(basis, e):
    monos = sorted({m for b in basis.exprs for m in b.poly.terms})
    index = {m: i for i, m in enumerate(monos)}
    m = SparseMatrix(len(monos), [{index[mono]: c for mono, c in b.poly.terms.items()}
                                  for b in basis.exprs])
    vec = [(0, 0)] * len(monos)
    for mono, c in e.poly.terms.items():
        vec[index[mono]] = c
    x, residual, _ = solve(m, vec)
    assert residual is None
    return {j: c for j, c in enumerate(x) if c != (0, 0)}


def _assert_int_first_coords(coords):
    """Each coordinate part is an int when integral, else a Fraction with
    denominator > 1, as in a Poly coefficient."""
    for c in coords.values():
        assert_int_first(c)


def test_basis_decompose_matches_solve():
    rng = random.Random(11)
    monomial = CoefficientBasis.monomials(["x", "y"], 2)
    mixed = CoefficientBasis([parse("1 + x"), parse("x - y"),
                              parse("x^2 + i*y")])
    for basis in (monomial, mixed):
        for _ in range(8):
            draws = [GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                              rng.randint(-2, 2)).key() for _ in basis.exprs]
            coeffs = {j: c for j, c in enumerate(draws) if c != (0, 0)}
            e = basis.combine(coeffs)
            got = basis.decompose(e)
            assert got == coeffs
            _assert_int_first_coords(got)
            assert got == _decompose_by_solve(basis, e)


def test_basis_decompose_escapes():
    mixed = CoefficientBasis([parse("1 + x"), parse("x - y"),
                              parse("x^2 + i*y")])
    # a monomial the basis never uses
    with pytest.raises(BasisEscapeError):
        mixed.decompose(parse("x*y"))
    # only basis monomials, but outside the span
    with pytest.raises(BasisEscapeError):
        mixed.decompose(parse("1"))
    with pytest.raises(BasisEscapeError):
        mixed.decompose(parse("x^2"))


# ---------------------------------------------------------------------------
# the assembled matrix of d_{P0}


def _support(action, t):
    """Tuples where d_{P0} of a cochain supported at t alone can be nonzero."""
    out = set()
    for h in action.group.elements():
        out.add((h,) + t)
        out.add(t + (h,))
        h_inv = action.inverse(h)
        for i, g in enumerate(t):
            out.add(t[:i] + (h, action.mult(h_inv, g)) + t[i + 1:])
    return sorted(out)


def _unit_cochain(action, t, sym):
    """Cochain equal to ``sym`` at t and to the zero symbol on every other tuple."""
    zero = FormalSymbol.zero(action.dim, sym.order)
    tuples = itertools.product(action.group.elements(), repeat=len(t))
    return Cochain(action, len(t), sym.order,
                   table={tt: sym if tt == t else zero for tt in tuples})


@pytest.mark.parametrize("action", [cyclic_rotations(2), cyclic_rotations(4),
                                    sign_flip()],
                         ids=["rotations_c2", "rotations_c4", "sign_flip_c2"])
def test_twisted_d_of_a_unit_cochain_vanishes_off_its_support(action):
    rng = random.Random(29)
    elems = action.group.elements()
    p0 = trivial_system(action, 1)
    for k in range(3):
        for t in itertools.product(elems, repeat=k):
            sym = random_symbol(rng, action.dim, 1, action.coords)
            y = twisted_d(p0, _unit_cochain(action, t, sym), check=False)
            support = set(_support(action, t))
            for tt in itertools.product(elems, repeat=k + 1):
                if tt not in support:
                    assert y.value(tt).is_zero(), (t, tt)


def _columns(m):
    """The columns {row: GaussRat} of m: each kept column divided by its scale."""
    return [{i: GaussRat(Fraction(x, den), Fraction(y, den)) for i, (x, y) in col.items()}
            for col, den in zip(m.cols, m.scales)]


@pytest.mark.parametrize("twist", ["trivial", "character"])
@pytest.mark.parametrize("n", [0, 1])
def test_twisted_d_matrices_square_to_zero(twist, n):
    i = Expr.imag_unit()
    action, chi = quarter_turn_character([Expr.one(), i, -Expr.one(), -i])
    if twist == "trivial":
        p0 = trivial_system(action, n)
    else:
        p0 = Cochain(action, 1, n, fn=lambda gs: _lift_leading(chi.value(gs), n))
    assert_cochain_zero(mc_residual(p0))
    basis = CoefficientBasis.monomials(action.coords, 1)
    elems = action.group.elements()
    coords = [[(t, alpha, j) for t in itertools.product(elems, repeat=k)
               for alpha in multi_indices(action.dim, n)
               for j in range(len(basis))] for k in range(4)]
    maps = _slot_maps(action, p0, n, basis)
    mats = [_matrix_of_twisted_d(action, maps, coords[k],
                                 {c: r for r, c in enumerate(coords[k + 1])})
            for k in range(3)]
    assert all(m.nnz() for m in mats[1:])
    for k in range(2):
        second = _columns(mats[k + 1])
        for col, column in enumerate(_columns(mats[k])):
            image = {}
            for r, c in column.items():
                for i, v in second[r].items():
                    image[i] = image.get(i, GaussRat(0)) + c * v
            assert all(v.is_zero() for v in image.values()), (k, coords[k][col])


def _character_twist(action, n):
    """P0(g) = w^g with w a primitive |G|-th root of unity: i for C4, -1 for C2."""
    w = Expr.imag_unit() ** (4 // action.group.size)
    return Cochain(action, 1, n,
                   fn=lambda gs: FormalSymbol.from_scalar(action.dim, n, w ** gs[0]))


def _oracle_column(action, p0, n, basis, t, alpha, j):
    """Decomposed twisted_d of the unit cochain at slot (alpha, j) of t, on _support(t)."""
    comps = [PolyXi.zero(action.dim) for _ in range(p0.order + 1)]
    comps[n] = PolyXi(action.dim, {alpha: basis.exprs[j]})
    x = _unit_cochain(action, t, FormalSymbol(action.dim, p0.order, comps))
    y = twisted_d(p0, x, check=False)
    return {(tt, alpha2, j2): GaussRat(*c) for tt in _support(action, t)
            for (alpha2, j2), c in _decompose_symbol_slot(y.value(tt), n, basis).items()}


def _matrix_columns(m, rows):
    return [{rows[r]: c for r, c in col.items()} for col in _columns(m)]


@pytest.mark.parametrize("twist", ["trivial", "character"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("action", [cyclic_rotations(2), cyclic_rotations(4),
                                    sign_flip()],
                         ids=["rotations_c2", "rotations_c4", "sign_flip_c2"])
def test_every_column_matches_twisted_d_of_a_unit_cochain(action, n, twist):
    p0 = trivial_system(action, n) if twist == "trivial" else _character_twist(action, n)
    assert_cochain_zero(mc_residual(p0))
    basis = CoefficientBasis.monomials(action.coords, 1)
    elems = action.group.elements()
    slots = [(alpha, j) for alpha in multi_indices(action.dim, n)
             for j in range(len(basis))]
    tuples = [list(itertools.product(elems, repeat=k)) for k in range(4)]
    # the three cochain degrees, and solve_order's columns without the identity
    cases = [(tuples[k], tuples[k + 1]) for k in range(3)]
    cases.append(([(g,) for g in elems if g != action.group.identity], tuples[2]))
    for col_tuples, row_tuples in cases:
        cols = [(t, alpha, j) for t in col_tuples for alpha, j in slots]
        rows = [(t, alpha, j) for t in row_tuples for alpha, j in slots]
        maps = _slot_maps(action, p0, n, basis)
        m = _matrix_of_twisted_d(action, maps, cols, {c: r for r, c in enumerate(rows)})
        for (t, alpha, j), got in zip(cols, _matrix_columns(m, rows)):
            assert got == _oracle_column(action, p0, n, basis, t, alpha, j), (t, alpha, j)


@pytest.mark.parametrize("twist", ["trivial", "character"])
@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("action", [cyclic_rotations(2), cyclic_rotations(4),
                                    sign_flip()],
                         ids=["rotations_c2", "rotations_c4", "sign_flip_c2"])
def test_normalized_columns_match_twisted_d_on_e_free_rows(action, n, twist):
    # the normalized builder drops h = e and the split rows holding e; what
    # is left of each column is twisted_d of the unit cochain off e
    p0 = trivial_system(action, n) if twist == "trivial" else _character_twist(action, n)
    assert dga._is_unital(action, p0)
    basis = CoefficientBasis.monomials(action.coords, 1)
    e = action.group.identity
    tuples = [dga._tuples(action, k, True) for k in range(4)]
    coords, mats = dga._twisted_d_matrices(action, p0, n, basis, tuples, True)
    for k in range(3):
        for (t, alpha, j), got in zip(coords[k], _matrix_columns(mats[k], coords[k + 1])):
            want = _oracle_column(action, p0, n, basis, t, alpha, j)
            assert got == {r: c for r, c in want.items() if e not in r[0]}, (t, alpha, j)


def _star_slot_maps(action, p0, n, basis, tuples, normalized=False):
    """Reference slot maps, one star product per entry: L[h, g, alpha, j] and
    R[g, h, alpha, j] are the slot coordinates of P0(h) star s and s star
    P0(h), s the unit symbol of slot (alpha, j), and g the product of a tuple."""
    dim, order = action.dim, p0.order
    phis = {g: action.diffeo(g) for g in dict.fromkeys(action.product(t) for t in tuples)}
    left, right = {}, {}
    for (h,) in dga._tuples(action, 1, normalized):
        p, phi_h = p0.value((h,)), action.diffeo(h)
        for g, phi_g in phis.items():
            for alpha in multi_indices(dim, n):
                for j, e in enumerate(basis.exprs):
                    s = dga._slot_symbol(dim, order, n, {alpha: e})
                    left[h, g, alpha, j] = _decompose_symbol_slot(
                        star(p, phi_h, s, phi_g), n, basis)
                    right[g, h, alpha, j] = _decompose_symbol_slot(
                        star(s, phi_g, p, phi_h), n, basis)
    return left, right


def det_one_involution():
    """C2 acting on the plane by the nonlinear involution (x, y) -> (-x, x^2 - y), det 1."""
    x, y = Expr.var("x"), Expr.var("y")
    coords = ["x", "y"]
    phi = Diffeo(coords, [-x, x * x - y], [-x, x * x - y])
    return ActionSpec("det-1 involution", FiniteGroup.cyclic(2), coords,
                      diffeos=[Diffeo.identity(coords), phi], volume_preserving=True)


def test_det_one_involution_is_an_action_with_a_closed_span():
    action = det_one_involution()
    assert check_action(action).all_ok
    basis = CoefficientBasis([parse(t, action.binding) for t in ("1", "x", "y", "x^2")])
    assert basis.closure_report(action).all_ok


def _constant_carriers(action, p0, n, h):
    """True when every carrier of P0(h) over phi_h, for the stars of the unit
    symbols of slot n, is an exact constant."""
    table = {}
    for alpha in multi_indices(action.dim, n):
        u = dga._slot_symbol(action.dim, p0.order, n, {alpha: Expr.one()})
        star(u, action.diffeo(h), p0.value((h,)), action.diffeo(h), table)
    return all(c.is_const() for carrier in table.values() for c in carrier.values())


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_slot_maps_match_one_star_product_per_entry():
    # every reference entry R[g, h, alpha, j] is e_j times the constants of
    # R[h, alpha].  The involution's inverse Jacobian holds 2x, so at n >= 1
    # its carriers are not constant.  Multiplying by a non-constant function
    # preserves no finite span, so R escapes {1, x, y, x^2} there: both
    # builders raise a BasisEscapeError
    actions = dict(NORMALIZED_ACTIONS, involution_c2=det_one_involution)

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(sorted(actions)),
                      st.sampled_from(["trivial", "character"]),
                      st.integers(0, 2), st.integers(0, 2), st.booleans())
    def check(name, twist, degree, n, normalized):
        action = actions[name]()
        basis = (CoefficientBasis([parse(t, action.binding) for t in ("1", "x", "y", "x^2")])
                 if name == "involution_c2" else CoefficientBasis.monomials(action.coords, degree))
        # a character w^g with w in Q(i) needs |G| to divide 4, so C3 stays trivial
        p0 = (_character_twist(action, n)
              if twist == "character" and 4 % action.group.size == 0
              else trivial_system(action, n))
        tuples = [t for k in range(3) for t in dga._tuples(action, k, normalized)]
        try:
            star_left, star_right = _star_slot_maps(action, p0, n, basis, tuples, normalized)
        except BasisEscapeError:
            with pytest.raises(BasisEscapeError):
                _slot_maps(action, p0, n, basis, normalized)
            assert not all(_constant_carriers(action, p0, n, h)
                           for (h,) in dga._tuples(action, 1, normalized))
            drawn.add((name, "escapes"))
            return
        left, right = _slot_maps(action, p0, n, basis, normalized)
        assert set(right) == {(h, alpha) for _, h, alpha, _ in star_right}
        for (g, h, alpha, j), want in star_right.items():
            assert {(gamma, j): c for gamma, c in right[h, alpha].items()} == want, (g, h, alpha, j)
        assert set(left) == {(h, j) for h, _, _, j in star_left}
        for (h, g, alpha, j), want in star_left.items():
            assert {(alpha, j2): c for j2, c in left[h, j].items()} == want, (h, g, alpha, j)
        drawn.add((name, "maps"))

    drawn = set()
    check()
    assert {("involution_c2", "maps"), ("involution_c2", "escapes")} <= drawn


def test_slot_maps_over_an_empty_basis_are_empty(monkeypatch):
    # over an empty basis no coordinate can escape, so the involution's
    # non-constant carriers at n = 1 raise nothing.  R takes one star per
    # (h, alpha), 2 x 3, each over the identity and phi_h
    action = det_one_involution()
    seen = []
    monkeypatch.setattr(dga, "star", lambda p, phi1, k, phi2, carriers=None:
                        seen.append((phi1, phi2)) or star(p, phi1, k, phi2, carriers))
    left, right = _slot_maps(action, trivial_system(action, 1), 1, CoefficientBasis([]))
    assert left == right == {}
    assert [phi2 for _, phi2 in seen] == [action.diffeo(0)] * 3 + [action.diffeo(1)] * 3
    for phi1, _ in seen:
        assert phi1.forward == phi1.inverse == [Expr.var(x) for x in action.coords]


def test_slot_maps_raise_when_a_twist_slot_reaches_past_n():
    # a C4 twist at order n + 1 = 1 with xi_1 in slot 1: u_alpha star P0(h)
    # has a slot-1 part, outside the solved order n = 0
    action = cyclic_rotations(4)
    comps = [PolyXi.constant(2, Expr.one()), PolyXi(2, {(1, 0): Expr.one()})]
    p0 = Cochain(action, 1, 1, fn=lambda gs: FormalSymbol(2, 1, comps))
    basis = CoefficientBasis.monomials(action.coords, 1)
    with pytest.raises(BasisEscapeError, match="outside the solved order"):
        _slot_maps(action, p0, 0, basis)


def _count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that records each call."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _record_matrices(monkeypatch, name):
    """Wrap ``dga.<name>`` (``rank`` or ``solve``) to record (matrix, result) of each call."""
    seen = []
    real = getattr(dga, name)

    def recording(m, *args):
        out = real(m, *args)
        seen.append((m, out))
        return out

    monkeypatch.setattr(dga, name, recording)
    return seen


def _count_decompositions(monkeypatch):
    """Record the basis decompositions ``_slot_maps`` makes itself (L) and
    the calls of ``_decompose_symbol_slot`` (a right-hand side; R makes none)."""
    own = []
    real = CoefficientBasis.decompose

    def recording(basis, e):
        if sys._getframe(1).f_code.co_name == "_slot_maps":
            own.append(None)
        return real(basis, e)

    monkeypatch.setattr(CoefficientBasis, "decompose", recording)
    return own, _count_calls(monkeypatch, dga, "_decompose_symbol_slot")


def test_cohomology_slot_maps_work_per_factor(monkeypatch):
    # normalized complex (P0 = 1) at order 0: 1 multi-index, 3 basis elements,
    # h over the 3 elements != e.  L: one decomposition per (h, j) and no star
    # product; R: one star product per (h, alpha), read off as constants with
    # no decomposition, serves every product g and every j
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(action.coords, 1)
    calls = _count_calls(monkeypatch, dga, "star")
    left, right = _count_decompositions(monkeypatch)
    dims = cohomology_dims(action, basis, n_max=0)
    assert len(calls) == 3 * 1
    assert (len(left), len(right)) == (3 * 3, 0)
    assert dims[0] == {"H0": 1, "H1": 0, "H2": 0}


def test_assembler_and_rank_build_no_gauss_rationals(monkeypatch, tmp_path):
    # the slot maps hold (re, im) pairs, so the columns of d_{P0} on the
    # cohomology config are summed in ints and ranked as they are built
    cfg = SessionConfig.load(os.path.join(ROOT, "configs", "cohomology_c4.cfg"),
                             out=str(tmp_path))
    active, made = [], []

    def inside(name):
        real = getattr(dga, name)

        def wrapped(*args):
            active.append(name)
            try:
                return real(*args)
            finally:
                active.pop()

        monkeypatch.setattr(dga, name, wrapped)

    inside("_matrix_of_twisted_d")
    inside("rank")
    real_init = GaussRat.__init__

    def counting(self, *args):
        if active:
            made.append(active[-1])
        real_init(self, *args)

    monkeypatch.setattr(GaussRat, "__init__", counting)
    ranked = _record_matrices(monkeypatch, "rank")
    assert run(cfg)[0] == 0
    monkeypatch.undo()
    # orders 0..2, three matrices each, every column already integral
    assert len(ranked) == 9 and made == []
    assert all(set(m.scales) == {1} for m, _ in ranked)


def test_cohomology_ranks_matrices_on_e_free_rows(monkeypatch):
    # 3 slots on the (|G| - 1)^(k+1) e-free tuples: 3 * 3, 3 * 9, 3 * 27 rows
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(action.coords, 1)
    ranked = _record_matrices(monkeypatch, "rank")
    cohomology_dims(action, basis, n_max=0)
    assert [m.nrows for m, _ in ranked] == [9, 27, 81]


def test_solve_order_slot_maps_work_per_factor(monkeypatch):
    # order 2: 6 multi-indices, 6 basis elements, h over the 3 elements != e.
    # L: 3 * 6 decompositions; R: 3 * 6 star products, read off as constants
    # with no decomposition.  The closedness check of the
    # (zero) right-hand side stars P0 against it on both sides of each of the
    # |G|^3 triples, 2 * 4^3, and the right-hand side is decomposed on the 4^2 pairs
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(action.coords, 2)
    p0 = trivial_system(action, 2)
    calls = _count_calls(monkeypatch, dga, "star")
    left, right = _count_decompositions(monkeypatch)
    diffs = _count_calls(monkeypatch, Poly, "diff")
    solved = _record_matrices(monkeypatch, "solve")
    res = solve_order(action, p0, {}, 2, basis)
    assert len(calls) == 3 * 6 + 2 * 4 ** 3
    assert (len(left), len(right)) == (3 * 6, 4 ** 2)
    assert res.solved and res.rhs_closed
    # the 2 x 2 inverse Jacobian once for each of the 3 rotations h != e (the
    # identity now meets only the zero right-hand side, which skips the
    # kernel); the chain rule of u_alpha star P0(h) never differentiates,
    # since P0 = 1 is constant
    assert len(diffs) == 3 * 4
    # rows: 36 slots on the (|G| - 1)^2 e-free pairs
    assert [(m.nrows, m.ncols) for m, _ in solved] == [(9 * 36, 3 * 36)]


def test_inverse_jacobian_is_computed_once_per_diffeo():
    phi = cyclic_rotations(4).diffeo(1)
    jac = phi.inverse_jacobian
    assert phi.inverse_jacobian is jac
    expected = [[g.diff(c) for c in phi.coords] for g in phi.inverse]
    assert all(is_zero(a - b).ok for row, erow in zip(jac, expected)
               for a, b in zip(row, erow))


def test_basis_decompose_makes_no_matrix_products(monkeypatch):
    monomial = CoefficientBasis.monomials(["x", "y"], 2)
    mixed = CoefficientBasis([parse("1 + x"), parse("x - y"),
                              parse("x^2 + i*y")])
    calls = _count_calls(monkeypatch, SparseMatrix, "__init__")
    for basis in (monomial, mixed):
        coeffs = {j: (j + 1, -j) for j in range(len(basis))}
        assert basis.decompose(basis.combine(coeffs)) == coeffs
    with pytest.raises(BasisEscapeError):
        mixed.decompose(parse("x^2"))
    assert calls == []


# ---------------------------------------------------------------------------
# the normalized complex against the full one


def _full_cohomology_at_order(action, basis, p0, n):
    """H^0..H^2 of d_{P0} on the full complex: every k-tuple, h over all of G."""
    elems = action.group.elements()
    tuples = [list(itertools.product(elems, repeat=k)) for k in range(4)]
    coords = [[(t, alpha, j) for t in ts for alpha in multi_indices(action.dim, n)
               for j in range(len(basis))] for ts in tuples]
    maps = _slot_maps(action, p0, n, basis)
    ranks = []
    for k in range(3):
        row_index = {c: i for i, c in enumerate(coords[k + 1])}
        ranks.append(rank(_matrix_of_twisted_d(action, maps, coords[k], row_index)))
    r0, r1, r2 = ranks
    return {
        "H0": len(coords[0]) - r0,
        "H1": (len(coords[1]) - r1) - r0,
        "H2": (len(coords[2]) - r2) - r1,
    }


def _lifted(p0, n):
    """The order-0 part of p0 at truncation order n, as cohomology_dims lifts it."""
    return Cochain(p0.action, 1, n, fn=lambda gs: _lift_leading(p0.value(gs), n))


NORMALIZED_ACTIONS = {
    "rotations_c2": lambda: cyclic_rotations(2),
    "rotations_c4": lambda: cyclic_rotations(4),
    "sign_flip_c2": sign_flip,
    "trivial_c3": lambda: trivial_action(FiniteGroup.cyclic(3), ["x"]),
}


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_normalized_cohomology_matches_the_full_complex():
    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(sorted(NORMALIZED_ACTIONS)),
                      st.sampled_from(["trivial", "character"]),
                      st.integers(0, 2), st.integers(0, 1))
    def check(name, twist, degree, n_max):
        action = NORMALIZED_ACTIONS[name]()
        basis = CoefficientBasis.monomials(action.coords, degree)
        # a character w^g with w in Q(i) needs |G| to divide 4, so C3 stays trivial
        p0 = (_character_twist(action, 0)
              if twist == "character" and 4 % action.group.size == 0 else None)
        dims = cohomology_dims(action, basis, p0=p0, n_max=n_max)
        for n in range(n_max + 1):
            p0n = trivial_system(action, n) if p0 is None else _lifted(p0, n)
            assert dga._is_unital(action, p0n)
            assert dims[n] == _full_cohomology_at_order(action, basis, p0n, n), (n, dims)

    check()


def test_zero_twist_takes_the_full_complex(monkeypatch):
    # P0 = 0 is Maurer-Cartan with P0(e) = 0, so the e-free tuples are no
    # subcomplex: every tuple and every h stay
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(action.coords, 1)
    p0 = Cochain.zero(action, 1, 0)
    assert_cochain_zero(mc_residual(p0))
    assert not dga._is_unital(action, _lifted(p0, 0))
    ranked = _record_matrices(monkeypatch, "rank")
    dims = cohomology_dims(action, basis, p0=p0, n_max=1)
    # order 0: 3 slots on the 4^(k+1) tuples
    assert [m.nrows for m, _ in ranked[:3]] == [12, 48, 192]
    for n in range(2):
        assert dims[n] == _full_cohomology_at_order(action, basis, _lifted(p0, n), n)


def _solve_with_rows(monkeypatch, normalized, run_it):
    """run_it() with solve_order's e-free rows allowed or refused; returns its
    result and (shape, x, kernel) of each linear solve inside."""
    with monkeypatch.context() as mp:
        solved = _record_matrices(mp, "solve")
        if not normalized:
            mp.setattr(dga, "_is_unital", lambda action, p0: False)
        result = run_it()
    return result, [((m.nrows, m.ncols), x, kernel) for m, (x, _, kernel) in solved]


C4_SOLVE_CFG = """[session]
task = mc-solve
order = 2
seed = 3

[action]
builtin = rotations_c4

[basis]
monomials = 2
"""


def test_the_solver_builds_no_gaussrat(monkeypatch, tmp_path):
    # basis coordinates, the right-hand side, linalg.solve's vectors and the
    # solution cochain are (re, im) pairs: in whole mc-solve runs, over
    # sign_flip_c2 and over C4 at basis degree 2, order 2, no frame in
    # linalg.py or dga.py constructs a GaussRat
    c4 = tmp_path / "c4.cfg"
    c4.write_text(C4_SOLVE_CFG)
    callers, real = [], GaussRat.__init__

    def counting(self, *args, **kwargs):
        callers.append(os.path.basename(sys._getframe(1).f_code.co_filename))
        real(self, *args, **kwargs)

    monkeypatch.setattr(GaussRat, "__init__", counting)
    for path in (os.path.join(ROOT, "configs", "solve_sign_flip.cfg"), str(c4)):
        assert run(SessionConfig.load(path, out=str(tmp_path)))[0] == 0
    GaussRat(1)   # the runs may build none at all: the counter still sees this one
    monkeypatch.undo()
    assert "test_dga.py" in callers
    assert not {"linalg.py", "dga.py"} & set(callers), sorted(set(callers))


def test_whole_c4_runs_build_no_gaussrat(monkeypatch, tmp_path):
    # the slot maps read each right-factor constant as its (re, im) pair and
    # the plan flattener tests a scale's pair against (+-1, 0): an mc-solve
    # over C4 at basis degree 2, order 2, and configs/cohomology_c4.cfg
    # construct no GaussRat from the config to the report
    c4 = tmp_path / "c4.cfg"
    c4.write_text(C4_SOLVE_CFG)
    cfgs = [SessionConfig.load(path, out=str(tmp_path))
            for path in (str(c4), os.path.join(ROOT, "configs", "cohomology_c4.cfg"))]
    c = parse("2")
    made = _count_calls(monkeypatch, GaussRat, "__init__")
    assert [run(cfg)[0] for cfg in cfgs] == [0, 0]
    by_runs = len(made)
    c.const_value()   # an API edge builds one
    assert (by_runs, len(made)) == (0, 1)


@pytest.mark.parametrize("config, order, slots, size", [
    ("solve_sign_flip", 1, 2 * 3, 2), ("solve_sign_flip", 2, 3 * 3, 2),
    ("solve_sign_flip", 3, 4 * 3, 2), ("c4_degree2", 2, 6 * 6, 4)])
def test_normalized_solve_rows_match_the_full_rows(monkeypatch, tmp_path, config,
                                                   order, slots, size):
    # the rows holding e are zero on e-free columns when P0 = 1, and the
    # right-hand side vanishes there, so x, the kernel and the report stay
    if config == "c4_degree2":
        path = tmp_path / "c4.cfg"
        path.write_text(C4_SOLVE_CFG)
    else:
        path = os.path.join(ROOT, "configs", config + ".cfg")

    def run_config():
        return run(SessionConfig.load(str(path), order=order, out=str(tmp_path)))

    (status, text), [(shape, x, kernel)] = _solve_with_rows(monkeypatch, True, run_config)
    (status_full, text_full), [(shape_full, x_full, kernel_full)] = _solve_with_rows(
        monkeypatch, False, run_config)
    assert status == status_full == 0
    assert text == text_full
    assert shape == ((size - 1) ** 2 * slots, (size - 1) * slots)
    assert shape_full == (size ** 2 * slots, (size - 1) * slots)
    assert x == x_full and kernel == kernel_full
    assert kernel


def test_right_hand_side_on_a_tuple_holding_e_keeps_every_row(monkeypatch):
    # the engineered obstruction lives on (e, e): its rows must stay, and
    # without it the e-free rows suffice; 2 order-1 multi-indices x 3 basis
    # elements = 6 slots, on 2^2 or 1 pairs and 1 column element
    action = sign_flip()
    basis = CoefficientBasis.monomials(["x"], 2)
    p0 = trivial_system(action, 1)
    comps = [PolyXi.zero(1), PolyXi(1, {(0,): Expr.var("x")})]
    y = Cochain(action, 1, 1, table={(0,): FormalSymbol(1, 1, comps),
                                     (1,): FormalSymbol.zero(1, 1)})
    rhs = twisted_d(p0, y, check=False)
    res, solved = _solve_with_rows(
        monkeypatch, True, lambda: solve_order(action, p0, {}, 1, basis, rhs_cochain=rhs))
    assert not res.solved
    assert [shape for shape, _, _ in solved] == [(4 * 6, 6)]
    res, solved = _solve_with_rows(
        monkeypatch, True, lambda: solve_order(action, p0, {}, 1, basis))
    assert res.solved
    assert [shape for shape, _, _ in solved] == [(1 * 6, 6)]
