"""Tests for the operator calculus and the induced symbol product."""

import random
from fractions import Fraction

import pytest

from quantact.actions import (BUILTIN_ACTIONS, Diffeo, action_from_config,
                              compose_diffeo, cyclic_rotations, galilean_boosts,
                              sign_flip)
from quantact.expr import Expr, Poly, is_zero, parse
from quantact.opcalc import (
    FormalFunction,
    FormalOperator,
    _product,
    apply,
    compose,
    standard_star,
    star,
)
from quantact.symbols import FormalSymbol, PolyXi, multi_indices

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:
    hypothesis = None

needs_hypothesis = pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")

X = Expr.var("x")
I = Expr.imag_unit()


def sym1(order, entries):
    """1d symbol from {(n, k): coeff} entries."""
    comps = [dict() for _ in range(order + 1)]
    for (n, k), c in entries.items():
        comps[n][(k,)] = c
    return FormalSymbol(1, order, [PolyXi(1, c) for c in comps])


def test_quantization_of_frequency_is_derivative():
    # symbol h*xi quantizes to h*D; on x^2 this gives -2i*x at order 1
    s = sym1(1, {(1, 1): Expr.one()})
    op = FormalOperator(s, Diffeo.identity(["x"]))
    out = apply(op, FormalFunction.from_expr(X ** 2, 1))
    assert is_zero(out.terms[0]).ok
    assert is_zero(out.terms[1] - (-2 * I * X)).ok


def test_order_zero_is_multiplier_and_pullback():
    act = sign_flip()
    phi = act.diffeos[1]
    s = sym1(0, {(0, 0): X ** 3})
    op = FormalOperator(s, phi)
    out = apply(op, FormalFunction.from_expr(X + 1, 0))
    # coefficient at x, argument pulled back: x^3 * (-x + 1)
    assert is_zero(out.terms[0] - X ** 3 * (1 - X)).ok


def test_compose_matches_sequential_application():
    # functoriality: apply(compose(T1, T2), psi) == apply(T1, apply(T2, psi))
    rng = random.Random(17)
    coords = ["x"]
    flip = sign_flip().diffeos[1]
    ident = Diffeo.identity(coords)
    monomials = [Expr.one(), X, X ** 2, X ** 3]

    def random_symbol(order):
        entries = {}
        for n in range(order + 1):
            for k in range(n + 1):
                if rng.random() < 0.5:
                    c = rng.randint(-2, 2)
                    if c:
                        entries[(n, k)] = rng.choice(monomials) * c
        return sym1(order, entries)

    for trial in range(12):
        order = 3
        s1 = random_symbol(order)
        s2 = random_symbol(order)
        phi1 = rng.choice([flip, ident])
        phi2 = rng.choice([flip, ident])
        t1 = FormalOperator(s1, phi1)
        t2 = FormalOperator(s2, phi2)
        composite = compose(t1, t2)
        for psi in [X ** 2, X ** 3 + X, Expr.exp(I * X)]:
            f = FormalFunction.from_expr(psi, order)
            lhs = apply(composite, f)
            rhs = apply(t1, apply(t2, f))
            assert lhs == rhs, "trial %d psi %s" % (trial, psi)


def test_compose_matches_sequential_application_2d():
    rng = random.Random(29)
    act = cyclic_rotations(4)
    coords = act.coords
    x, y = Expr.var("x"), Expr.var("y")
    ident = Diffeo.identity(coords)
    monos = [Expr.one(), x, y, x * y, x ** 2]

    def random_symbol(order):
        comps = []
        for n in range(order + 1):
            entries = {}
            for alpha in multi_indices(2, n):
                if rng.random() < 0.4:
                    c = rng.randint(-2, 2)
                    if c:
                        entries[alpha] = rng.choice(monos) * c
            comps.append(PolyXi(2, entries))
        return FormalSymbol(2, order, comps)

    for trial in range(6):
        s1, s2 = random_symbol(2), random_symbol(2)
        phi1 = rng.choice(act.diffeos + [ident])
        phi2 = rng.choice(act.diffeos + [ident])
        t1, t2 = FormalOperator(s1, phi1), FormalOperator(s2, phi2)
        composite = compose(t1, t2)
        psi = FormalFunction.from_expr(x ** 2 * y + Expr.exp(I * (x + y)), 2)
        assert apply(composite, psi) == apply(t1, apply(t2, psi))


def test_star_standard_product_first_order():
    # (h f(x) xi) * g(x) = h (f g xi + (1/i) f g')
    f = X ** 2
    g = X ** 3 + 1
    p = sym1(1, {(1, 1): f})
    k = sym1(1, {(0, 0): g})
    prod = standard_star(p, k, ["x"])
    assert is_zero(prod.comps[1].coefficient((1,)) - f * g).ok
    expected_zero_order = -I * f * g.diff("x")
    assert is_zero(prod.comps[1].coefficient((0,)) - expected_zero_order).ok
    assert prod.comps[0].is_zero()


def test_star_commutator_of_position_and_frequency():
    # x * xi - xi * x = i*h at truncation 1
    p = sym1(1, {(0, 0): X})
    q = sym1(1, {(1, 1): Expr.one()})
    ab = standard_star(p, q, ["x"])
    ba = standard_star(q, p, ["x"])
    comm = ab.sub(ba)
    assert is_zero(comm.comps[1].coefficient((0,)) - I).ok
    assert is_zero(comm.comps[1].coefficient((1,))).ok


def test_star_against_leibniz_formula():
    # For identity diffeomorphisms, composition of differential operators
    # gives the exact finite Leibniz expansion per order pair,
    #   (p * k)^l = sum over n + m = l, all alpha, of
    #       (1/alpha!) (1/i)^|alpha| d_xi^alpha p^n . d_x^alpha k^m .
    # (The frequency variable is already h-rescaled: xi^a quantizes to D^a
    # with no extra power of h, so derivatives do not shift the order.)
    import math

    rng = random.Random(41)
    xi = "xi1"

    def rnd(order):
        entries = {}
        for n in range(order + 1):
            for k in range(n + 1):
                c = rng.randint(-2, 2)
                if c:
                    entries[(n, k)] = X ** rng.randint(0, 2) * c
        return sym1(order, entries)

    for _ in range(6):
        order = 3
        p, k = rnd(order), rnd(order)
        prod = standard_star(p, k, ["x"])
        # oracle via scalar expressions in (x, xi)
        for l in range(order + 1):
            acc = Expr.zero()
            for n in range(l + 1):
                m = l - n
                pe = p.comps[n].to_expr([xi])
                ke = k.comps[m].to_expr([xi])
                for a in range(n + 1):
                    term = pe
                    for _ in range(a):
                        term = term.diff(xi)
                    dk = ke
                    for _ in range(a):
                        dk = dk.diff("x")
                    acc = acc + term * dk * Fraction(1, math.factorial(a)) * (-I) ** a
            assert is_zero(prod.comps[l].to_expr([xi]) - acc).ok


def test_star_exponentials_add_phases():
    # e^{iS1} over phi1 times e^{iS2} over phi2 = e^{i(S1 + S2 o phi1^{-1})}
    act = galilean_boosts()
    t, x = Expr.var("t"), Expr.var("x")
    m = Expr.var("m")

    def phase(v):
        return m * v * x - m * v * v * t * Fraction(1, 2)

    v1 = Expr.var("v__1")
    v2 = Expr.var("v__2")
    phi1 = act.diffeo((v1,))
    phi2 = act.diffeo((v2,))
    s1 = FormalSymbol.from_scalar(2, 1, Expr.exp(I * phase(v1)))
    s2 = FormalSymbol.from_scalar(2, 1, Expr.exp(I * phase(v2)))
    prod = star(s1, phi1, s2, phi2)
    expected_phase = phase(v1) + phi1.pullback(phase(v2))
    expected = Expr.exp(I * expected_phase)
    assert is_zero(prod.comps[0].coefficient((0, 0)) - expected).ok
    assert prod.comps[1].is_zero()


def test_star_filtration():
    # pure orders p and k multiply into order exactly p + k
    p = sym1(3, {(1, 1): X})
    k = sym1(3, {(2, 2): X ** 2})
    prod = standard_star(p, k, ["x"])
    for n, comp in enumerate(prod.comps):
        if n != 3:
            assert comp.is_zero(), n
    assert not prod.comps[3].is_zero()


def test_star_mixed_associativity():
    # (p * k) * l over composed diffeos equals p * (k * l)
    act = cyclic_rotations(4)
    x, y = Expr.var("x"), Expr.var("y")
    phi1, phi2, phi3 = act.diffeos[1], act.diffeos[2], act.diffeos[3]
    from quantact.actions import compose_diffeo
    p = FormalSymbol(2, 2, [PolyXi.constant(2, x),
                            PolyXi(2, {(1, 0): y}),
                            PolyXi.zero(2)])
    k = FormalSymbol(2, 2, [PolyXi.constant(2, y),
                            PolyXi(2, {(0, 1): x}),
                            PolyXi.zero(2)])
    l = FormalSymbol(2, 2, [PolyXi.constant(2, x * y),
                            PolyXi.zero(2),
                            PolyXi(2, {(1, 1): Expr.one()})])
    lhs = star(star(p, phi1, k, phi2), compose_diffeo(phi1, phi2), l, phi3)
    rhs = star(p, phi1, star(k, phi2, l, phi3), compose_diffeo(phi2, phi3))
    assert lhs == rhs


def test_identity_operator_is_neutral():
    ident = FormalOperator(FormalSymbol.one(1, 2), Diffeo.identity(["x"]))
    s = sym1(2, {(1, 1): X, (2, 2): X ** 2, (0, 0): Expr.one()})
    t = FormalOperator(s, Diffeo.identity(["x"]))
    left = compose(ident, t)
    right = compose(t, ident)
    assert left.symbol == s
    assert right.symbol == s


def _via_compose(p, phi1, k, phi2):
    return compose(FormalOperator(p, phi1), FormalOperator(k, phi2)).symbol


def _structurally_zero(sym):
    return not any(comp.coeffs for comp in sym.comps)


def test_star_with_zero_operand_matches_compose():
    # the nonzero side holds a quotient tree, which a zero test would sample
    x, y, t = Expr.var("x"), Expr.var("y"), Expr.var("t")
    c4 = cyclic_rotations(4)
    quotient = x / (y + 1)
    assert not quotient.is_canonical
    c4_other = FormalSymbol(2, 2, [PolyXi.constant(2, quotient),
                                   PolyXi(2, {(1, 0): quotient * y}),
                                   PolyXi(2, {(1, 1): x, (0, 0): quotient})])
    cases = [(c4.diffeo(g1), c4.diffeo(g2), c4_other)
             for g1 in c4.group.elements() for g2 in c4.group.elements()]
    gal = galilean_boosts()
    gal_other = FormalSymbol(2, 1, [PolyXi.constant(2, x / (t + 1)),
                                    PolyXi(2, {(0, 1): t})])
    cases.append((gal.diffeo((Expr.var("v__1"),)),
                  gal.diffeo((Expr.var("v__2"),)), gal_other))
    for phi1, phi2, other in cases:
        zero = FormalSymbol.zero(other.dim, other.order)
        for p, k in ((zero, other), (other, zero)):
            got = star(p, phi1, k, phi2)
            ref = _via_compose(p, phi1, k, phi2)
            assert _structurally_zero(got) and _structurally_zero(ref)
            assert (got.dim, got.order) == (ref.dim, ref.order)


def test_star_checks_order_and_dim_before_zero_short_cut():
    act = cyclic_rotations(4)
    phi = act.diffeos[1]
    zero = FormalSymbol.zero(2, 1)
    k = FormalSymbol(2, 2, [PolyXi.constant(2, Expr.var("x")),
                            PolyXi.zero(2), PolyXi.zero(2)])
    with pytest.raises(ValueError, match="order"):
        star(zero, phi, k, phi)
    with pytest.raises(ValueError, match="order"):
        star(k, phi, zero, phi)
    with pytest.raises(ValueError, match="dimension"):
        star(FormalSymbol.zero(1, 2), phi, k, phi)


# ---------------------------------------------------------------------------
# independent oracles for the product kernel


def _reference_product(p, phi1, k, phi2):
    """The product kernel as it was before carriers were shared within a
    call and pullbacks kept their monomial images: every carrier is built
    anew for each (alpha, f) and every term is substituted anew."""
    _MINUS_I = Expr.gauss(0, -1)
    coords, dim, order = phi1.coords, p.dim, p.order
    inv1_map = dict(zip(coords, phi1.inverse))
    # jac[i][j] = d_j (phi2^{-1})_i
    jac = phi2.inverse_jacobian
    out = [dict() for _ in range(order + 1)]

    def add_term(n, gamma, coeff):
        table = out[n]
        if gamma in table:
            table[gamma] = table[gamma] + coeff
        else:
            table[gamma] = coeff

    for n1, comp1 in enumerate(p.comps):
        for alpha, f in comp1.coeffs.items():
            for n2, comp2 in enumerate(k.comps):
                if n1 + n2 > order:
                    break
                for beta, g in comp2.coeffs.items():
                    # carrier maps gamma -> coefficient of (D^gamma psi) o phi2^{-1}
                    carrier = {beta: g}
                    for j in range(dim):
                        for _ in range(alpha[j]):
                            nxt = {}
                            for gamma, c in carrier.items():
                                dc = c.diff(coords[j]) * _MINUS_I
                                if not dc.is_exact_zero():
                                    nxt[gamma] = nxt.get(gamma, Expr.zero()) + dc
                                for i in range(dim):
                                    ji = jac[i][j]
                                    if ji.is_exact_zero():
                                        continue
                                    gi = tuple(gamma[m] + (1 if m == i else 0)
                                               for m in range(dim))
                                    nxt[gi] = nxt.get(gi, Expr.zero()) + c * ji
                            carrier = nxt
                    for gamma, c in carrier.items():
                        coeff = f * c.substitute(inv1_map)
                        add_term(n1 + n2, gamma, coeff)

    # PolyXi drops the exact zeros
    return FormalSymbol(dim, order, [PolyXi(dim, table) for table in out])


def _form(e):
    """An expression as nested lists: a canonical part by its terms in
    order, a tree node by its kind and its children's forms."""
    if e.is_canonical:
        return list(e.poly.terms.items())
    return [e.node[0]] + [_form(a) if isinstance(a, Expr) else a for a in e.node[1:]]


def _symbol_form(sym):
    return [[(alpha, _form(c)) for alpha, c in comp.coeffs.items()] for comp in sym.comps]


# R acting on the (t, x) plane by nonlinear shears x -> x + a t^2/(1 + t^2):
# its inverse and the Jacobian of the inverse are quotient trees
NONLINEAR_SHEAR = {
    "coords": "t, x", "params": "a",
    "forward": "t, x + a*t^2/(1 + t^2)", "inverse": "t, x - a*t^2/(1 + t^2)",
    "product": "a__1 + a__2", "param_inverse": "-a", "param_identity": "0",
}


def _maps_under_test():
    """(name, coords, diffeos): every finite built-in action, then the shear."""
    out = []
    for name, make in BUILTIN_ACTIONS.items():
        act = make()
        if act.is_finite:
            out.append((name, act.coords, [act.diffeo(g) for g in act.group.elements()]))
    shear = action_from_config(NONLINEAR_SHEAR)
    out.append(("nonlinear_shear", shear.coords,
                [shear.diffeo((Expr.integer(a),)) for a in (0, 1, -2)]))
    return out


MAPS = _maps_under_test()
MAP_IDS = [name for name, _, _ in MAPS]


def _draw_symbol(draw, coords, order):
    """Random symbol with a nonzero order-0 part: small integer combinations
    of 1, the coordinates, a product of two and exp(i*coordinate)."""
    atoms = [Expr.one()] + [Expr.var(c) for c in coords]
    atoms += [Expr.var(coords[0]) * Expr.var(coords[-1]),
              Expr.exp(I * Expr.var(coords[0]))]
    coefficient = st.lists(st.tuples(st.sampled_from(atoms),
                                     st.sampled_from([-3, -2, -1, 1, 2, 3])),
                           min_size=1, max_size=2)
    dim = len(coords)
    comps = []
    for n in range(order + 1):
        entries = {}
        for alpha in multi_indices(dim, n):
            if n == 0 or draw(st.booleans()):
                entries[alpha] = sum((a * c for a, c in draw(coefficient)), Expr.zero())
        comps.append(PolyXi(dim, entries))
    return FormalSymbol(dim, order, comps)


@needs_hypothesis
@pytest.mark.parametrize("name, coords, diffeos", MAPS, ids=MAP_IDS)
def test_product_matches_the_reference_kernel(name, coords, diffeos):
    trees = []

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        phi1 = data.draw(st.sampled_from(diffeos))
        phi2 = data.draw(st.sampled_from(diffeos))
        order = data.draw(st.integers(0, 2))
        p = _draw_symbol(data.draw, coords, order)
        k = _draw_symbol(data.draw, coords, order)
        got = _product(p, phi1, k, phi2)
        assert _symbol_form(got) == _symbol_form(_reference_product(p, phi1, k, phi2))
        trees.extend(c for comp in got.comps for c in comp.coeffs.values()
                     if not c.is_canonical)

    check()
    # the shear's inverse is a quotient tree, so its products hold trees
    assert bool(trees) == (name == "nonlinear_shear")


@needs_hypothesis
@pytest.mark.parametrize("name, coords, diffeos", MAPS[:-1], ids=MAP_IDS[:-1])
def test_star_is_associative_over_composed_maps(name, coords, diffeos):
    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.data())
    def check(data):
        phi1, phi2, phi3 = (data.draw(st.sampled_from(diffeos)) for _ in range(3))
        order = data.draw(st.integers(0, 2))
        p, q, r = (_draw_symbol(data.draw, coords, order) for _ in range(3))
        lhs = star(star(p, phi1, q, phi2), compose_diffeo(phi1, phi2), r, phi3)
        rhs = star(p, phi1, star(q, phi2, r, phi3), compose_diffeo(phi2, phi3))
        assert lhs == rhs

    check()


def test_a_repeated_star_adds_no_monomial_image(monkeypatch):
    phi = cyclic_rotations(4).diffeo(1)
    x, y = Expr.var("x"), Expr.var("y")
    p = FormalSymbol(2, 2, [PolyXi.constant(2, x * y + 1),
                            PolyXi(2, {(1, 0): y ** 2}),
                            PolyXi(2, {(1, 1): x})])
    # a monomial image is built from powers of the map's components, so
    # Poly.pow runs only when the pullback meets a monomial anew
    pows = []
    pow_ = Poly.pow

    def counted_pow(self, n):
        pows.append(n)
        return pow_(self, n)

    monkeypatch.setattr(Poly, "pow", counted_pow)
    first = star(p, phi, p, phi)
    images = len(pows)
    assert images > 0
    assert star(p, phi, p, phi) == first
    assert len(pows) == images


def test_compose_agrees_with_sympy():
    """Apply Op(p, phi1) o Op(k, phi2) and the composite operator to
    psi = exp(a x + b y) in sympy, truncated at h^order."""
    sympy = pytest.importorskip("sympy")
    from sympy.parsing.sympy_parser import (convert_xor, parse_expr,
                                            standard_transformations)

    act = cyclic_rotations(4)
    sx, sy, a, b, h = sympy.symbols("x y a b h")
    names = {"x": sx, "y": sy, "i": sympy.I, "exp": sympy.exp}

    def to_sympy(e):
        return parse_expr(str(e), local_dict=names,
                          transformations=standard_transformations + (convert_xor,))

    def op_apply(symbol, phi, fn):
        # sum_n h^n sum_alpha f(x) * ((1/i)^|alpha| d^alpha fn)(phi^{-1}(x))
        inverse = {sx: to_sympy(phi.inverse[0]), sy: to_sympy(phi.inverse[1])}
        total = 0
        for n, comp in enumerate(symbol.comps):
            for (ax, ay), f in comp.coeffs.items():
                d = sympy.diff(fn, sx, ax, sy, ay) * (-sympy.I) ** (ax + ay)
                total += h ** n * to_sympy(f) * d.subs(inverse, simultaneous=True)
        return total

    def truncate(e, order):
        e = sympy.expand(e)
        return sum(e.coeff(h, n) * h ** n for n in range(order + 1))

    x, y = Expr.var("x"), Expr.var("y")
    p = FormalSymbol(2, 1, [PolyXi.constant(2, x * y + 2),
                            PolyXi(2, {(1, 0): y, (0, 1): 3 * x, (0, 0): x})])
    k = FormalSymbol(2, 1, [PolyXi.constant(2, x - y ** 2),
                            PolyXi(2, {(0, 1): x * y, (0, 0): I * y})])
    psi = sympy.exp(a * sx + b * sy)
    for g1, g2 in ((1, 2), (3, 1), (0, 3)):
        t1 = FormalOperator(p, act.diffeo(g1))
        t2 = FormalOperator(k, act.diffeo(g2))
        composite = compose(t1, t2)
        lhs = truncate(op_apply(p, t1.phi, op_apply(k, t2.phi, psi)), 1)
        rhs = truncate(op_apply(composite.symbol, composite.phi, psi), 1)
        assert sympy.simplify(lhs - rhs) == 0, (g1, g2)
