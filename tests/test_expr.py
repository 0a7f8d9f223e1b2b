"""Tests for the exact expression engine."""

import random
from fractions import Fraction

import pytest

from quantact.expr import (
    Expr,
    GaussRat,
    ParseError,
    VarBinding,
    ZeroCheck,
    all_zero,
    is_zero,
    parse,
)

B = VarBinding(coordinates=["x", "y"], parameters=["v"], constants=["m"])
BG = VarBinding(coordinates=["t", "x"], parameters=["v1", "v2"], constants=["m"])


def ev(e, **values):
    return e.eval(values)


# ---------------------------------------------------------------------------
# canonicalization


def test_polynomial_identities_cancel_exactly():
    cases = [
        "(x+1)^2 - x^2 - 2*x - 1",
        "(x+y)^3 - x^3 - 3*x^2*y - 3*x*y^2 - y^3",
        "(x-y)*(x+y) - x^2 + y^2",
        "2*(x/2) - x",
    ]
    for text in cases:
        chk = is_zero(parse(text, B))
        assert chk.ok and chk.kind == "exact", text


def test_exponential_merge_rules():
    x = Expr.var("x")
    y = Expr.var("y")
    assert is_zero(Expr.exp(x) * Expr.exp(y) - Expr.exp(x + y)).ok
    assert is_zero(Expr.exp(x) * Expr.exp(-x) - Expr.one()).ok
    assert is_zero(Expr.exp(Expr.zero()) - Expr.one()).ok
    assert is_zero(Expr.exp(x) ** 3 - Expr.exp(3 * x)).ok
    # constant shifts in the argument stay merged
    assert is_zero(Expr.exp(x + 1) - Expr.exp(Expr.one()) * Expr.exp(x)).ok


def test_trigonometric_identities_cancel_exactly():
    cases = [
        "sin(x)^2 + cos(x)^2 - 1",
        "cos(x+y) - cos(x)*cos(y) + sin(x)*sin(y)",
        "sin(x+y) - sin(x)*cos(y) - cos(x)*sin(y)",
        "sin(2*x) - 2*sin(x)*cos(x)",
        "exp(i*x) - cos(x) - i*sin(x)",
    ]
    for text in cases:
        chk = is_zero(parse(text, B))
        assert chk.ok and chk.kind == "exact", text


def test_nonzero_is_detected():
    assert not is_zero(parse("(x+1)^2 - x^2", B)).ok
    assert not is_zero(parse("sin(x)^2 - cos(x)^2", B)).ok


def test_all_zero_folds_kinds_and_consumes_every_check():
    exact, sampled = ZeroCheck(True, "exact"), ZeroCheck(True, "probabilistic")
    assert all_zero([]) == ZeroCheck(True, "exact")
    assert all_zero([exact, exact]) == ZeroCheck(True, "exact")
    assert all_zero([exact, sampled]) == ZeroCheck(True, "probabilistic")
    # a failure does not end the fold: the sampled check after it counts
    failed = ZeroCheck(False, "exact")
    assert all_zero([failed, sampled]) == ZeroCheck(False, "probabilistic")
    seen = []

    def checks():
        for chk in (failed, exact, sampled):
            seen.append(chk)
            yield chk

    assert all_zero(checks()) == ZeroCheck(False, "probabilistic")
    assert seen == [failed, exact, sampled]


def test_galilean_cocycle_is_exact_zero():
    # S_v(t,x) = m v x - m v^2 t / 2; the boost by v1 acts by x -> x - v1 t.
    s1 = parse("m*v1*x - (1/2)*m*v1^2*t", BG)
    s2 = parse("m*v2*x - (1/2)*m*v2^2*t", BG)
    s12 = parse("m*(v1+v2)*x - (1/2)*m*(v1+v2)^2*t", BG)
    pulled = s2.substitute({"x": parse("x - v1*t", BG)})
    chk = is_zero(pulled - s12 + s1)
    assert chk.ok and chk.kind == "exact"


def _random_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return Expr.integer(rng.randint(-4, 4))
        if choice == 1:
            return Expr.var(rng.choice(["x", "y"]))
        if choice == 2:
            return Expr.rational(rng.randint(-6, 6), rng.randint(1, 6))
        return Expr.imag_unit()
    op = rng.randrange(5)
    a = _random_expr(rng, depth - 1)
    if op == 0:
        return a + _random_expr(rng, depth - 1)
    if op == 1:
        return a * _random_expr(rng, depth - 1)
    if op == 2:
        return a ** rng.randint(0, 3)
    if op == 3:
        return -a
    return Expr.exp(Expr.var(rng.choice(["x", "y"])) * rng.randint(-2, 2))


def test_eval_matches_independent_tree_evaluation():
    # Build random expressions, evaluate through the canonical form and
    # through plain complex arithmetic on the construction history.
    rng = random.Random(7)
    for _ in range(60):
        e = _random_expr(rng)
        pt = {"x": complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
              "y": complex(rng.uniform(-1, 1), rng.uniform(-1, 1))}
        v = e.eval(pt)
        # recompute from printed text, a fully independent parse
        v2 = parse(str(e), B).eval(pt)
        assert abs(v - v2) <= 1e-9 * max(1.0, abs(v))


def test_eval_is_exact_for_rational_points():
    e = parse("(2/3)*x^2*y - (1/7)*y + 5", B)
    val = ev(e, x=Fraction(3, 2), y=Fraction(7, 5))
    expected = Fraction(2, 3) * Fraction(9, 4) * Fraction(7, 5) - Fraction(1, 5) + 5
    assert val == complex(expected)


# ---------------------------------------------------------------------------
# differentiation


def test_diff_basic_rules():
    x = Expr.var("x")
    assert is_zero((x ** 2).diff("x") - 2 * x).ok
    e = Expr.exp(Expr.imag_unit() * Expr.var("m") * x)
    assert is_zero(e.diff("x") - Expr.imag_unit() * Expr.var("m") * e).ok
    assert is_zero(Expr.sin(x).diff("x") - Expr.cos(x)).ok
    assert is_zero(Expr.cos(x).diff("x") + Expr.sin(x)).ok


def test_diff_matches_finite_differences():
    rng = random.Random(11)
    exprs = [
        parse("m*v*x - (1/2)*m*v^2*y", B),
        parse("exp(i*(x^2+y))", B),
        parse("sin(x*y) + cos(x)^2", B),
        parse("x^3*y - 2*x*y^2 + exp(x)", B),
    ]
    h = 1e-6
    for e in exprs:
        de = e.diff("x")
        for _ in range(5):
            pt = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1),
                  "v": rng.uniform(-1, 1), "m": rng.uniform(0.5, 1.5)}
            up = dict(pt, x=pt["x"] + h)
            dn = dict(pt, x=pt["x"] - h)
            fd = (e.eval(up) - e.eval(dn)) / (2 * h)
            exact = de.eval(pt)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_diff_chain_rule_through_substitution():
    # d/dt f(x - v t) = -v f'(x - v t)
    f = parse("sin(x) + x^2", B)
    g = f.substitute({"x": parse("x - v*t", VarBinding(["t", "x"], ["v"]))})
    lhs = g.diff("t")
    rhs = -Expr.var("v") * f.diff("x").substitute({"x": parse("x - v*t", VarBinding(["t", "x"], ["v"]))})
    assert is_zero(lhs - rhs).ok


# ---------------------------------------------------------------------------
# substitution


def test_substitute_composes():
    e = parse("x^2 + y", B)
    e2 = e.substitute({"x": parse("x + 1", B)}).substitute({"x": parse("x - 1", B)})
    assert is_zero(e2 - e).ok


def test_substitute_into_exponential_argument():
    e = parse("exp(i*x)", B)
    e2 = e.substitute({"x": Expr.zero()})
    assert is_zero(e2 - Expr.one()).ok


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_print_round_trip_random():
    rng = random.Random(23)
    for _ in range(80):
        e = _random_expr(rng)
        assert parse(str(e), B) == e


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + * y", B)
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse("x + (y", B)
    with pytest.raises(ParseError) as err:
        parse("x ^ y", B)
    with pytest.raises(ParseError) as err:
        parse("2 + zz", B)
    assert "zz" in str(err.value)
    assert err.value.pos == 4


def test_undeclared_identifier_rejected_with_binding():
    with pytest.raises(ParseError):
        parse("q + 1", B)
    # without a binding any identifier is allowed
    assert parse("q + 1", None) is not None


def test_integer_exponents_only():
    with pytest.raises(ParseError):
        parse("x^(1/2)", B)


def test_reserved_names():
    with pytest.raises(Exception):
        VarBinding(coordinates=["i"])
    with pytest.raises(Exception):
        VarBinding(coordinates=["sin"])
    with pytest.raises(Exception):
        VarBinding(coordinates=["x", "x"])


# ---------------------------------------------------------------------------
# division and the probabilistic fallback


def test_division_by_invertible_monomial_is_exact():
    e = parse("x / 2 + x / exp(i*y)", B)
    chk = is_zero(e - parse("(1/2)*x + x*exp(-i*y)", B))
    assert chk.ok and chk.kind == "exact"


def test_division_by_zero_raises():
    with pytest.raises(ParseError):
        parse("x / (y - y)", B)


def test_quotient_leaves_canonical_class():
    e = parse("x / (y + 1)", B)
    assert not e.is_canonical
    chk = is_zero(e * parse("y + 1", B) - Expr.var("x"))
    assert chk.ok and chk.kind == "probabilistic"
    chk2 = is_zero(e - Expr.var("x"))
    assert not chk2.ok and chk2.kind == "probabilistic"


def test_quotient_differentiation_is_closed():
    e = parse("x / (y + 1)", B)
    de = e.diff("y")
    # quotient rule: -x/(y+1)^2
    ref = parse("x", B) / (parse("y+1", B) * parse("y+1", B))
    chk = is_zero(de + ref)
    assert chk.ok


def test_gauss_rational_arithmetic():
    a = GaussRat(Fraction(1, 2), Fraction(3, 4))
    b = GaussRat(Fraction(-2, 3), Fraction(1, 5))
    assert (a * b) * b.inv() == a
    assert (a + b) - b == a
    assert a.conj().conj() == a


def test_zero_test_on_a_pole_is_undecided():
    # every draw hits the pole of 1/(1/x - 1/x); the test must stop and never
    # certify zero
    e = parse("1/(1/x - 1/x)", B)
    assert not e.is_canonical
    chk = is_zero(e)
    assert not chk.ok and chk.kind == "probabilistic"
    assert "undecided" in chk.detail


def test_zero_test_draws_unchanged_without_poles():
    e = parse("x / (y + 1)", B) * parse("y + 1", B) - Expr.var("x")
    rng = random.Random(5)
    assert is_zero(e, rng=rng, points=20).ok
    ref = random.Random(5)
    for _ in range(20):
        for _name in ("x", "y"):
            ref.randint(-999, 999)
            ref.randint(1, 99)
    assert rng.random() == ref.random()


def test_equal_trees_hash_equal():
    a = parse("1/(1+x^2)", B)
    b = parse("1/(1+x^2)", B)
    assert a is not b and not a.is_canonical
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_poly_power_matches_repeated_product():
    base = parse("x + 2*y - i", B).poly
    expected = parse("1", B).poly
    for n in range(7):
        assert base.pow(n) == expected
        expected = expected.mul(base)
