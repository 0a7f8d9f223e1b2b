"""Tests for diffeomorphisms, groups and action verification."""

import itertools
import random
from fractions import Fraction

import pytest

from quantact.actions import (
    BUILTIN_ACTIONS,
    ActionSpec,
    Diffeo,
    FiniteGroup,
    ParamGroup,
    action_from_config,
    check_action,
    compose_diffeo,
    cyclic_rotations,
    galilean_boosts,
    heisenberg,
    integer_quarter_turns,
    multiplicative_trivial,
    sign_flip,
    translations,
    trivial_action,
)
from quantact.expr import Expr, VarBinding, is_zero, parse


def test_compose_diffeo_order():
    # phi1 o phi2 applies phi2 first: with phi1 = +a shift, phi2 = doubling,
    # (phi1 o phi2)(x) = 2x + a.
    coords = ["x"]
    x = Expr.var("x")
    shift = Diffeo(coords, [x + 3], [x - 3])
    double = Diffeo(coords, [2 * x], [x * Fraction(1, 2)])
    comp = compose_diffeo(shift, double)
    assert is_zero(comp.forward[0] - (2 * x + 3)).ok
    assert is_zero(comp.inverse[0] - (x - 3) * Fraction(1, 2)).ok
    for chk in comp.verify_inverse():
        assert chk.ok


def test_rotation_powers_close():
    act = cyclic_rotations(4)
    r = act.diffeos[1]
    r4 = compose_diffeo(r, compose_diffeo(r, compose_diffeo(r, r)))
    assert r4.is_identity()
    assert is_zero(act.diffeos[1].jacobian_det() - Expr.one()).ok


def test_galilean_boosts_compose():
    act = galilean_boosts()
    g1 = act.group.element(Fraction(1, 2))
    g2 = act.group.element(Fraction(1, 3))
    composed = compose_diffeo(act.diffeo(g1), act.diffeo(g2))
    product = act.diffeo(act.group.mult(g1, g2))
    for f1, f2 in zip(composed.forward, product.forward):
        assert is_zero(f1 - f2).ok


def test_jacobian_chain_rule():
    act = galilean_boosts()
    g = act.group.symbolic_element(1)
    phi = act.diffeo(g)
    det = phi.jacobian_det()
    assert is_zero(det - Expr.one()).ok
    # chain rule on a composition of 2d maps
    a = cyclic_rotations(4).diffeos[1]
    x, y = Expr.var("x"), Expr.var("y")
    b = Diffeo(["x", "y"], [x + y * y, y], [x - y * y, y])
    comp = compose_diffeo(a, b)
    lhs = comp.jacobian_det()
    rhs = b.pushforward(a.jacobian_det()) * b.jacobian_det()
    # det(D(a o b)) = det(Da) o b * det(Db)
    assert is_zero(lhs - rhs).ok


def test_inverse_affine_data_is_exact_and_kept():
    boosts = galilean_boosts()
    phi = boosts.diffeo(boosts.group.element(Fraction(3, 20)))
    a, b = phi.inverse_affine
    # phi^{-1}(t, x) = (t, x - 3/20 t)
    assert a == [[1, 0], [Fraction(-3, 20), 1]] and b == [0, 0]
    assert phi.inverse_affine is phi.inverse_affine
    x = Expr.var("x")
    shift = Diffeo(["x"], [-x + Fraction(1, 3)], [-x + Fraction(1, 3)])
    assert shift.inverse_affine == ([[-1]], [Fraction(1, 3)])
    # every built-in map in one or two dimensions is affine; so is Heisenberg's
    rng = random.Random(3)
    for name, factory in sorted(BUILTIN_ACTIONS.items()):
        action = factory()
        for g in action.sample_elements(rng, count=3):
            assert action.diffeo(g).inverse_affine is not None, (name, g)


@pytest.mark.parametrize("inverse", ["x - v*t", "x - m*t", "x - t^2", "x - exp(t)",
                                     "x - i*t", "x - 1/(1 + t^2)", "x - v"])
def test_inverse_affine_is_none_off_the_real_affine_maps(inverse):
    # a parameter, a named constant, a higher degree, an exp atom, a complex
    # coefficient, a tree and a parameter offset each give None; only the
    # inverse components are read
    binding = VarBinding(coordinates=["t", "x"], parameters=["v"], constants=["m"])
    inv = parse(inverse, binding)
    t = Expr.var("t")
    phi = Diffeo(["t", "x"], [t, Expr.var("x")], [t, inv])
    assert phi.inverse_affine is None
    assert phi.inverse_affine is None


def test_check_action_builtins_pass():
    rng = random.Random(3)
    for factory in (lambda: translations(1), lambda: translations(2),
                    galilean_boosts, lambda: cyclic_rotations(2),
                    lambda: cyclic_rotations(4), sign_flip, heisenberg,
                    multiplicative_trivial, integer_quarter_turns):
        act = factory()
        rep = check_action(act, rng=rng)
        assert rep.all_ok, "%s\n%s" % (act.name, rep.render())


@pytest.mark.parametrize("name", [name for name, factory in BUILTIN_ACTIONS.items()
                                  if factory().is_finite])
def test_product_diffeo_is_the_diffeo_of_the_product(name):
    act = BUILTIN_ACTIONS[name]()
    elems = act.group.elements()
    ident = act.product_diffeo(())
    assert act.product(()) == act.group.identity
    assert ident.forward == ident.inverse == [Expr.var(c) for c in act.coords]
    for k in (1, 2, 3):
        for t in itertools.product(elems, repeat=k):
            g = t[0]
            for h in t[1:]:
                g = act.mult(g, h)
            assert act.product(t) == g
            assert act.product_diffeo(t) is act.diffeo(g)


@pytest.mark.parametrize("name", sorted(BUILTIN_ACTIONS))
def test_one_identity_map_per_action(name):
    # the identity keeps its Jacobian and pullback images from call to call
    act = BUILTIN_ACTIONS[name]()
    ident = act.product_diffeo(())
    assert act.product_diffeo(()) is ident
    assert ident.coords == act.coords and ident.is_identity()
    assert BUILTIN_ACTIONS[name]().product_diffeo(()) is not ident


def _custom_action(coords, forward, inverse):
    return action_from_config({
        "coords": coords, "params": "a", "forward": forward, "inverse": inverse,
        "product": "a__1 + a__2", "param_inverse": "-a", "param_identity": "0"})


def _item(report, prefix):
    return next(item for item in report.items if item.name.startswith(prefix))


def test_noncanonical_identity_map_is_probabilistic():
    # at a = 0 the map is x + 0/(1 + x^2), a quotient tree that is sampled
    act = _custom_action("x", "x + a/(1+x*x)", "x - a/(1+x*x)")
    item = _item(check_action(act, rng=random.Random(7)), "identity acts trivially")
    assert (item.ok, item.kind) == (True, "probabilistic")


def test_failing_homomorphism_kind_counts_every_component():
    # on the symbolic pair x fails exactly; y is a quotient tree, sampled
    act = _custom_action("x, y", "x + a*a, y + a*y/(1+a*a)",
                         "x - a*a, y*(1+a*a)/(1+a+a*a)")
    item = _item(check_action(act, rng=random.Random(7)), "homomorphism")
    assert (item.ok, item.kind) == (False, "probabilistic")


def test_check_action_catches_bad_inverse():
    coords = ["x"]
    x = Expr.var("x")
    group = FiniteGroup.cyclic(2)
    bad = ActionSpec("broken", group, coords,
                     diffeos=[Diffeo.identity(coords), Diffeo(coords, [-x], [x])])
    rep = check_action(bad)
    assert not rep.all_ok


def test_check_action_catches_non_homomorphism():
    coords = ["x"]
    x = Expr.var("x")
    group = FiniteGroup.cyclic(2)
    # x -> x + 1 does not square to the identity
    bad = ActionSpec("broken hom", group, coords,
                     diffeos=[Diffeo.identity(coords), Diffeo(coords, [x + 1], [x - 1])])
    rep = check_action(bad)
    assert not rep.all_ok


def test_multiplicative_inverse_is_probabilistic():
    act = multiplicative_trivial()
    g = act.group.symbolic_element(1)
    ginv = act.group.inverse(g)
    prod = act.group.mult(g, ginv)
    chk = is_zero(prod[0] - Expr.one())
    assert chk.ok and chk.kind == "probabilistic"


def test_heisenberg_law_and_action():
    act = heisenberg()
    g1 = act.group.symbolic_element(1)
    g2 = act.group.symbolic_element(2)
    # the adjoint maps compose like the group: check the homomorphism
    lhs = act.diffeo(act.group.mult(g1, g2))
    rhs = compose_diffeo(act.diffeo(g1), act.diffeo(g2))
    for f1, f2 in zip(lhs.forward, rhs.forward):
        assert is_zero(f1 - f2).ok


def test_integer_quarter_turns():
    act = integer_quarter_turns()
    x, y = Expr.var("x"), Expr.var("y")
    d5 = act.diffeo(act.group.element(5))
    assert is_zero(d5.forward[0] + y).ok and is_zero(d5.forward[1] - x).ok
    d0 = act.diffeo(act.group.element(4))
    assert d0.is_identity()
    # invariance of x^2 + y^2
    h = x ** 2 + y ** 2
    for n in range(-4, 5):
        phi = act.diffeo(act.group.element(n))
        assert is_zero(phi.pullback(h) - h).ok


def test_trivial_action():
    act = trivial_action(FiniteGroup.cyclic(3), ["x"])
    rep = check_action(act)
    assert rep.all_ok


def test_action_from_config_custom():
    section = {
        "coords": "t, x",
        "params": "v",
        "constants": "m",
        "forward": "t, x + v*t",
        "inverse": "t, x - v*t",
        "product": "v__1 + v__2",
        "param_inverse": "-v",
        "param_identity": "0",
        "volume_preserving": "yes",
    }
    act = action_from_config(section)
    rep = check_action(act, rng=random.Random(1))
    assert rep.all_ok


def test_action_from_config_builtin():
    act = action_from_config({"builtin": "galilean"})
    assert act.name == "galilean boosts"
    with pytest.raises(ValueError):
        action_from_config({"builtin": "nope"})
