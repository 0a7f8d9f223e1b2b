"""Tests for the exact expression engine."""

import cmath
import random
import sys
import threading
from fractions import Fraction

import pytest

from quantact import expr
from quantact.expr import (
    Expr,
    GaussRat,
    Poly,
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


def test_a_zero_check_is_an_immutable_record():
    check = ZeroCheck(True, "exact")
    assert (check.ok, check.kind, check.detail) == (True, "exact", "")
    assert check == ZeroCheck(ok=True, kind="exact", detail="")
    assert check != ZeroCheck(True, "probabilistic")
    assert repr(check) == "ZeroCheck(ok=True, kind='exact', detail='')"
    with pytest.raises(AttributeError):
        check.ok = False


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


def test_quotient_by_a_constant_denominator_keeps_it():
    # the denominator is free of y, so d/dy divides by it once instead of
    # squaring it; twelve derivatives keep it at its first size
    e = parse("exp(i*x*y/7) / (1 + x^2)", B)
    de = e.diff("y")
    assert str(de) == "(1/7*i*exp(1/7*i*x*y)*x)/(1 + x^2)"
    for _ in range(11):
        de = de.diff("y")
    assert str(de).endswith("/(1 + x^2)") and str(de).count("/(1 + x^2)") == 1
    ref = parse("(x/7)^12 * exp(i*x*y/7) / (1 + x^2)", B)
    assert is_zero(de - ref).ok


def test_quotient_derivatives_raise_the_denominator_power():
    # d^n/dy^n 1/(1 + x*y) = n! (-x)^n / (1 + x*y)^(n+1): one more factor of
    # the denominator per derivative, never its square
    de = parse("1/(1 + x*y)", B)
    for n in range(1, 6):
        de = de.diff("y")
        assert str(de).endswith("/((1 + x*y)^%d)" % (n + 1))
    ref = parse("-120*x^5/(1 + x*y)^6", B)
    assert is_zero(de - ref).ok


def test_trig_of_a_quotient_is_an_exp_sum():
    q = parse("x/(y + 1)", B)
    s, c = Expr.sin(q), Expr.cos(q)
    assert "sin" not in str(s) and "cos" not in str(c)
    rng = random.Random(5)
    for _ in range(5):
        pt = {"x": Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
              "y": Fraction(rng.randint(0, 9), rng.randint(1, 5))}
        assert abs(ev(s, **pt) - cmath.sin(ev(q, **pt))) < 1e-12
        assert abs(ev(c, **pt) - cmath.cos(ev(q, **pt))) < 1e-12
    for name in ("x", "y"):
        assert is_zero(s.diff(name) - q.diff(name) * c).ok
        assert is_zero(c.diff(name) + q.diff(name) * s).ok


def test_sampled_zero_scales_with_the_terms_that_cancel():
    # (10^8 x + q) - 10^8 x - q with q a quotient tree: the float sum loses
    # about 1e-8 |x| to rounding, which an absolute 1e-9 would call nonzero
    x = Expr.var("x")
    big = Expr.integer(10 ** 8) * x
    q = Expr.one() / (1 + x * x)
    chk = is_zero(big + q - big - q)
    assert chk.ok and chk.kind == "probabilistic"
    # small is not zero: the scale is that of the terms, not an absolute one
    chk = is_zero(parse("(1/1000000)/(1+x*x)", B))
    assert not chk.ok and chk.kind == "probabilistic"


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
    assert is_zero(e, rng=rng).ok
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


# ---------------------------------------------------------------------------
# the shared walker: Expr.fold and Poly.fold


def test_substitute_tree_value_into_exponential_atom():
    # a tree value forces the canonical polynomial through tree arithmetic,
    # exp atom included
    T = VarBinding(coordinates=["x", "y", "t"])
    e = parse("x^2*exp(i*x*y) + 3*x*y - exp(x)", T)
    assert e.is_canonical
    r = parse("1/(1+t^2)", T)
    moved = e.substitute({"x": r})
    assert not moved.is_canonical
    rng = random.Random(41)
    for _ in range(10):
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        y = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        want = e.eval({"x": r.eval({"t": t}), "y": y})
        got = moved.eval({"t": t, "y": y})
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_eval_at_a_pole_raises():
    e = parse("(x + 1) / (x - y) + y", B)
    with pytest.raises(ZeroDivisionError):
        e.eval({"x": 3, "y": 3})
    with pytest.raises(ZeroDivisionError):
        e.eval({"x": 0.5, "y": 0.5})
    assert e.eval({"x": 3, "y": 1}) == 3


def test_operators_defer_to_the_other_operand():
    class Tagged:
        def __radd__(self, other):
            return ("radd", other)

        def __rmul__(self, other):
            return ("rmul", other)

        def __rsub__(self, other):
            return ("rsub", other)

        def __rtruediv__(self, other):
            return ("rtruediv", other)

    x = Expr.var("x")
    assert (x + Tagged())[0] == "radd"
    assert (x * Tagged())[0] == "rmul"
    assert (x - Tagged())[0] == "rsub"
    assert (x / Tagged())[0] == "rtruediv"
    for op in (lambda a: a + 1.5, lambda a: 1.5 * a, lambda a: a - 1.5,
               lambda a: 1.5 / a):
        with pytest.raises(TypeError):
            op(x)


def test_the_name_registry_is_safe_under_threads():
    # eight threads register each fresh name at once; a lost update would
    # give two names one field, or a field no guard bit
    names = ["registry_thread_%d" % k for k in range(50)]
    start = threading.Barrier(8, timeout=30)

    def register():
        for n in names:
            start.wait()
            Poly.var(n)

    threads = [threading.Thread(target=register) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(set(expr._NAMES)) == len(expr._NAMES) and set(names) <= set(expr._NAMES)
    assert all(expr._SHIFTS[n] == 32 * k for k, n in enumerate(expr._NAMES))
    assert expr._GUARD == sum(1 << (32 * k + 31) for k in range(len(expr._NAMES)))
    for n in names:
        (mono, _), = Poly.var(n).terms.items()
        assert mono == 1 << expr._SHIFTS[n]


def test_powers_and_substitutions_stop_at_the_term_budget(monkeypatch):
    # a t-term power n has at most C(n + t - 1, t - 1) terms: (x + 1)^n up
    # to n + 1 = TERM_BUDGET; the check comes before any product is made
    x, y, one = Poly.var("x"), Poly.var("y"), Poly.const(1)
    budget = expr.TERM_BUDGET
    assert len(x.add(one).pow(budget - 1).terms) == budget
    # C(2 + 2, 2) = 6 terms at t = 3, and C(n + 2, 2) > budget from n = 44
    assert len(x.add(y).add(one).pow(2).terms) == 6
    products, real_mul = [], Poly.mul

    def counting_mul(p, q):
        if len(p.terms) > 1 and len(q.terms) > 1:   # a product to expand, not a scaling
            products.append((len(p.terms), len(q.terms)))
        return real_mul(p, q)

    monkeypatch.setattr(Poly, "mul", counting_mul)
    for base, n in ((x.add(one), budget), (x.add(y).add(one), 44)):
        with pytest.raises(expr.ExprError, match="may have more than %d terms" % budget):
            base.pow(n)
    assert products == []
    # the image of x^2 y^2 under x -> (x + 1)^20, y -> (y + 1)^20: 41 x 41 terms
    mapping = {"x": x.add(one).pow(20), "y": y.add(one).pow(20)}
    monomial = x.pow(2).mul(y.pow(2))
    products.clear()
    with pytest.raises(expr.ExprError, match="may have 1681 terms, more than %d" % budget):
        monomial.subs(mapping, {})
    # the two squares are made; their product, which the budget refuses, is not
    assert products == [(21, 21), (21, 21)]
    assert len(x.pow(2).mul(y).subs(mapping, {}).terms) == 41 * 21


def test_products_of_one_term_factors_stop_at_the_bit_budget():
    # a product of one-term factors has one coefficient, whose parts have at
    # most b1 + b2 bits: constants and monomials alike stop past the budget,
    # and the largest admitted product renders
    budget = expr.BIT_BUDGET
    x, y = Poly.var("x"), Poly.var("y")
    wide, wider = Poly.const(3 ** 4416), Poly.const(3 ** 4417)   # 7000 and 7001 bits
    assert expr._bits(wide) + expr._bits(wider) == budget + 1
    edge = wide.mul(wide).mul(x)
    assert len(str(Expr(poly=edge))) < 4300
    message = "a product of coefficients of 7000 and 7001 bits may pass %d bits" % budget
    for p, q in ((wide, wider), (wide.mul(x), wider), (wide.mul(x), wider.mul(y))):
        with pytest.raises(expr.ExprError, match=message):
            p.mul(q)
    # a Fraction's numerator and denominator count alike
    assert expr._bits(Poly.const(GaussRat(Fraction(1, 3 ** 4417), 1))) == 7001


def test_multi_term_powers_and_wide_coefficients_stop_at_the_bit_budget():
    # a t-term power n sums up to t^n products of n coefficients, so its parts
    # may have n (w + log2 t) bits, w the one-term width; any other
    # coefficient past the budget, as from a product of two-term factors,
    # stops where it renders, short of Python's 4,300-digit limit
    budget = expr.BIT_BUDGET
    x, one = Poly.var("x"), Poly.const(1)
    base = Poly.const(3 ** 100).mul(x).add(one)   # 159 bits, 2 terms
    edge = base.pow(budget // 160)
    assert expr._bits(edge) <= budget and str(Expr(poly=edge))   # it renders
    message = "power %d of a 2-term polynomial with 159-bit coefficients may pass %d bits"
    with pytest.raises(expr.ExprError, match=message % (budget // 160 + 1, budget)):
        base.pow(budget // 160 + 1)
    skew = Poly.const(GaussRat(3 ** 100, 3 ** 100)).mul(x).add(one)   # complex: 319 bits
    skew.pow(budget // 320)
    with pytest.raises(expr.ExprError, match="power %d of a 2-term" % (budget // 320 + 1)):
        skew.pow(budget // 320 + 1)
    wide = Poly.const(3 ** 4600).mul(x).add(one)
    square = wide.mul(wide)   # a product of two-term factors is not bounded
    with pytest.raises(expr.ExprError, match="a coefficient part of 14582 bits is too wide "
                                             "to render \\(more than %d\\)" % budget):
        str(Expr(poly=square))
    with pytest.raises(expr.ExprError, match="too wide to render"):
        str(Expr(poly=Poly.const(GaussRat(Fraction(1, 3 ** 8834)))))   # 14002 bits
    assert str(Expr(poly=Poly.const(3 ** 8833))) == str(3 ** 8833)   # 14000 bits


def test_exp_arguments_count_toward_the_term_budget():
    # (e^x + e^{-x} + e^i)^n has at most C(n + 2, 2) terms, each with an exp
    # argument of at most the 3 argument terms of the base: 231 * 4 <= 1000 at
    # n = 20, 253 * 4 > 1000 at n = 21
    assert expr.TERM_BUDGET == 1000
    x, y, z = Poly.var("x"), Poly.var("y"), Poly.var("z")
    base = Poly.exp_atom(x).add(Poly.exp_atom(x.neg())).add(Poly.exp_atom(Poly.const(GaussRat(0, 1))))
    base.pow(20)
    with pytest.raises(expr.ExprError, match="power 21 of a 3-term polynomial with 3 terms in "
                                             "exp arguments may have more than 1000 terms"):
        base.pow(21)
    # e^z x under x -> sum of k e^{j y}: k terms, each with a 2-term argument
    def image(k):
        total = Poly.zero()
        for j in range(1, k + 1):
            total = total.add(Poly.exp_atom(y.scalar_mul(j)))
        return Poly.exp_atom(z).mul(x).subs({"x": total}, {})
    assert len(image(333).terms) == 333
    with pytest.raises(expr.ExprError, match="may have 1002 terms, more than 1000"):
        image(334)


def test_one_term_powers_stop_at_the_bit_budget(monkeypatch):
    # the parts of the coefficient of (c m)^n have at most n b bits, b the
    # widest part of c, n (2 b + 1) when c is complex; the budget bounds that
    # before any product is made, so the largest admitted power renders.  A
    # unit c never grows
    budget = expr.BIT_BUDGET
    x, three, one_i = Poly.var("x"), Poly.const(3), Poly.const(GaussRat(1, 1))
    edge = three.pow(budget // 2).mul(x)   # 3 has 2 bits
    assert len(str(Expr(poly=edge))) < 4300
    assert one_i.pow(budget // 3) == Poly.const(GaussRat(0, 2 ** 2333))   # (2i)^2333
    calls, real_mul = [], Poly.mul
    bases = ((three.mul(x), budget // 2 + 1), (one_i, budget // 3 + 1),
             (Poly.const(Fraction(1, 3)), 2 ** 31 - 1))
    monkeypatch.setattr(Poly, "mul", lambda p, q: calls.append(None) or real_mul(p, q))
    for base, n in bases:
        with pytest.raises(expr.ExprError, match="may pass %d bits" % budget):
            base.pow(n)
    assert calls == []
    # units: i^(2^31 - 1) = -i, and x^(2^31 - 1) keeps its coefficient 1
    assert Poly.const(GaussRat(0, 1)).pow(2 ** 31 - 1) == Poly.const(GaussRat(0, -1))
    assert x.pow(2 ** 31 - 1).terms == {(2 ** 31 - 1) << expr._SHIFTS["x"]: (1, 0)}
