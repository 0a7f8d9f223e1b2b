"""Cochain complex, Maurer-Cartan machinery, and the order-by-order solver."""

import itertools
import random
from fractions import Fraction

import pytest

from quantact import dga
from quantact.actions import (FiniteGroup, cyclic_rotations, galilean_boosts,
                              heisenberg, sign_flip, translations,
                              trivial_action)
from quantact.dga import (BasisEscapeError, Cochain, CoefficientBasis,
                          PhaseCochain, _decompose_symbol_slot, _lift_leading,
                          _matrix_of_twisted_d, _slot_maps, character_phase,
                          cochain_zero_report, cohomology_dims, d, delta_phase,
                          exp_system, gauge_report, mc_residual,
                          phase_zero_report, representation_report,
                          solve_order, star_graded, trivial_system, twisted_d)
from quantact.expr import Expr, GaussRat, is_zero, parse
from quantact.linalg import SparseMatrix, solve
from quantact.opcalc import compose, to_operator, to_symbol
from quantact.symbols import FormalSymbol, PolyXi, multi_indices


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
    rep = phase_zero_report(delta_phase(s))
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
    rep = phase_zero_report(delta_phase(delta_phase(s)))
    assert rep.all_ok, rep.render()

    k = PhaseCochain(action, 0, table={(): x * x + z})
    rep0 = phase_zero_report(delta_phase(delta_phase(k)))
    assert rep0.all_ok, rep0.render()


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
    rep = phase_zero_report(delta_phase(s))
    assert rep.all_ok, rep.render()


def test_gauge_equivalence_by_coboundary():
    # u = e^{iK} intertwines e^{iS} with e^{i(S + delta K)}
    action, s = galilean_free_phase()
    x = Expr.var("x")
    k = PhaseCochain(action, 0, table={(): x * x})
    dk = delta_phase(k)
    s2 = PhaseCochain(action, 1, fn=lambda gs: s.value(gs) + dk.value(gs))
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


def test_basis_rejects_dependent_exprs():
    with pytest.raises(ValueError):
        CoefficientBasis(["x"], [parse("x"), parse("2*x")])


def test_basis_closure_under_action():
    flip = sign_flip()
    good = CoefficientBasis.monomials(["x"], 2)
    assert good.closure_report(flip).all_ok
    shift = translations(1)
    bad = CoefficientBasis(["x1"], [parse("x1")])
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

    res = solve_order(action, p0, {1: x1}, 2, basis, order=order)
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
        ref = to_symbol(compose(
            to_operator(a.value((g1,)), action.diffeo(g1), action.coords),
            to_operator(b.value((g2,)), action.diffeo(g2), action.coords)))
        assert v == ref


def _decompose_by_solve(basis, e):
    monos = sorted({m for b in basis.exprs for m in b.poly.terms})
    index = {m: i for i, m in enumerate(monos)}
    m = SparseMatrix(len(monos), len(basis))
    for j, b in enumerate(basis.exprs):
        for mono, c in b.poly.terms.items():
            m.set(index[mono], j, c)
    vec = [GaussRat(0)] * len(monos)
    for mono, c in e.poly.terms.items():
        vec[index[mono]] = c
    x, residual = solve(m, vec)
    assert residual is None
    return x


def test_basis_decompose_matches_solve():
    rng = random.Random(11)
    monomial = CoefficientBasis.monomials(["x", "y"], 2)
    mixed = CoefficientBasis(["x", "y"], [parse("1 + x"), parse("x - y"),
                                          parse("x^2 + i*y")])
    for basis in (monomial, mixed):
        for _ in range(8):
            coeffs = [GaussRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                               rng.randint(-2, 2)) for _ in basis.exprs]
            e = basis.combine(coeffs)
            got = basis.decompose(e)
            assert got == coeffs
            assert got == _decompose_by_solve(basis, e)


def test_basis_decompose_escapes():
    mixed = CoefficientBasis(["x", "y"], [parse("1 + x"), parse("x - y"),
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


def _column(m, col):
    return [row.get(col, GaussRat(0)) for row in m.rows]


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
    tuples = [t for k in range(3) for t in itertools.product(elems, repeat=k)]
    maps = _slot_maps(action, p0, n, basis, tuples)
    mats = [_matrix_of_twisted_d(action, maps, coords[k],
                                 {c: r for r, c in enumerate(coords[k + 1])})
            for k in range(3)]
    assert all(m.nnz() for m in mats[1:])
    for k in range(2):
        for col in range(len(coords[k])):
            image = mats[k + 1].mul_vector(_column(mats[k], col))
            assert all(v.is_zero() for v in image), (k, coords[k][col])


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
    return {(tt, alpha2, j2): c for tt in _support(action, t)
            for (alpha2, j2), c in _decompose_symbol_slot(y.value(tt), n, basis).items()}


def _matrix_columns(m, rows):
    cols = [{} for _ in range(m.ncols)]
    for r, row in enumerate(m.rows):
        for col, c in row.items():
            cols[col][rows[r]] = c
    return cols


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
        maps = _slot_maps(action, p0, n, basis, col_tuples)
        m = _matrix_of_twisted_d(action, maps, cols, {c: r for r, c in enumerate(rows)})
        for (t, alpha, j), got in zip(cols, _matrix_columns(m, rows)):
            assert got == _oracle_column(action, p0, n, basis, t, alpha, j), (t, alpha, j)


def _count_star_calls(monkeypatch):
    calls = []
    real = dga.star

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr("quantact.dga.star", counting)
    return calls


def test_cohomology_makes_one_star_product_per_map_entry(monkeypatch):
    # 2 maps x |G| elements h x (|G| products g + the empty tuple) x 3 slots
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(action.coords, 1)
    calls = _count_star_calls(monkeypatch)
    dims = cohomology_dims(action, basis, n_max=0)
    assert len(calls) == 2 * 4 * (4 + 1) * 3
    assert dims[0] == {"H0": 1, "H1": 0, "H2": 0}


def test_solve_order_makes_one_star_product_per_map_entry(monkeypatch):
    # maps: 2 x |G| elements h x 3 non-identity products g x 36 order-2 slots;
    # the closedness check of the (zero) right-hand side stars P0 against it
    # on both sides of each of the |G|^3 triples
    action = cyclic_rotations(4)
    basis = CoefficientBasis.monomials(action.coords, 2)
    p0 = trivial_system(action, 2)
    calls = _count_star_calls(monkeypatch)
    res = solve_order(action, p0, {}, 2, basis)
    assert len(calls) == 2 * 4 * 3 * 36 + 2 * 4 ** 3
    assert res.solved and res.rhs_closed
