"""Tests for the operator calculus and the induced symbol product."""

import random
from fractions import Fraction

import pytest

from quantact.actions import Diffeo, cyclic_rotations, galilean_boosts, sign_flip
from quantact.expr import Expr, is_zero, parse
from quantact.opcalc import (
    FormalFunction,
    FormalOperator,
    apply,
    compose,
    standard_star,
    star,
    to_operator,
    to_symbol,
)
from quantact.symbols import FormalSymbol, PolyXi, multi_indices

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
    op = to_operator(s, Diffeo.identity(["x"]))
    out = apply(op, FormalFunction.from_expr(X ** 2, 1))
    assert is_zero(out.terms[0]).ok
    assert is_zero(out.terms[1] - (-2 * I * X)).ok


def test_order_zero_is_multiplier_and_pullback():
    act = sign_flip()
    phi = act.diffeos[1]
    s = sym1(0, {(0, 0): X ** 3})
    op = to_operator(s, phi)
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
        t1 = to_operator(s1, phi1)
        t2 = to_operator(s2, phi2)
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
        t1, t2 = to_operator(s1, phi1), to_operator(s2, phi2)
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
    coords = act.coords
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
    prod = star(s1, phi1, s2, phi2, coords)
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
    coords = act.coords
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
    lhs = star(star(p, phi1, k, phi2, coords), compose_diffeo(phi1, phi2), l, phi3, coords)
    rhs = star(p, phi1, star(k, phi2, l, phi3, coords), compose_diffeo(phi2, phi3), coords)
    assert lhs == rhs


def test_identity_operator_is_neutral():
    ident = FormalOperator.identity(["x"], 2)
    s = sym1(2, {(1, 1): X, (2, 2): X ** 2, (0, 0): Expr.one()})
    t = to_operator(s, Diffeo.identity(["x"]))
    left = compose(ident, t)
    right = compose(t, ident)
    assert to_symbol(left) == s
    assert to_symbol(right) == s


def _via_compose(p, phi1, k, phi2, coords):
    return to_symbol(compose(to_operator(p, phi1, coords),
                             to_operator(k, phi2, coords)))


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
    cases = [(c4.coords, c4.diffeo(g1), c4.diffeo(g2), c4_other)
             for g1 in c4.group.elements() for g2 in c4.group.elements()]
    gal = galilean_boosts()
    gal_other = FormalSymbol(2, 1, [PolyXi.constant(2, x / (t + 1)),
                                    PolyXi(2, {(0, 1): t})])
    cases.append((gal.coords, gal.diffeo((Expr.var("v__1"),)),
                  gal.diffeo((Expr.var("v__2"),)), gal_other))
    for coords, phi1, phi2, other in cases:
        zero = FormalSymbol.zero(other.dim, other.order)
        for p, k in ((zero, other), (other, zero)):
            got = star(p, phi1, k, phi2, coords)
            ref = _via_compose(p, phi1, k, phi2, coords)
            assert _structurally_zero(got) and _structurally_zero(ref)
            assert (got.dim, got.order) == (ref.dim, ref.order)


def test_star_checks_order_and_dim_before_zero_short_cut():
    act = cyclic_rotations(4)
    phi = act.diffeos[1]
    zero = FormalSymbol.zero(2, 1)
    k = FormalSymbol(2, 2, [PolyXi.constant(2, Expr.var("x")),
                            PolyXi.zero(2), PolyXi.zero(2)])
    with pytest.raises(ValueError, match="order"):
        star(zero, phi, k, phi, act.coords)
    with pytest.raises(ValueError, match="order"):
        star(k, phi, zero, phi, act.coords)
    with pytest.raises(ValueError, match="dimension"):
        star(FormalSymbol.zero(1, 2), phi, k, phi, act.coords)
