"""Tests for truncated symbols and the amplitude Taylor map."""

import random
from fractions import Fraction

import pytest

from quantact.expr import Expr, VarBinding, is_zero, parse
from quantact.symbols import (
    AmplitudeSeries,
    FormalSymbol,
    PolyXi,
    dump_symbol,
    load_symbol,
    multi_indices,
    taylor_from_amplitude,
    xi_decompose,
)

B1 = VarBinding(coordinates=["x1"], parameters=[], constants=[])
B2 = VarBinding(coordinates=["x1", "x2"])


def test_multi_indices_counts():
    # number of alpha with |alpha| <= n in dimension d is C(n+d, d)
    assert len(multi_indices(1, 3)) == 4
    assert len(multi_indices(2, 3)) == 10
    assert len(multi_indices(3, 2)) == 10


def test_symbol_component_degree_enforced():
    with pytest.raises(ValueError):
        FormalSymbol(1, 0, [PolyXi(1, {(1,): Expr.one()})])
    # degree n at order n is fine
    FormalSymbol(1, 1, [PolyXi.zero(1), PolyXi(1, {(1,): Expr.one()})])


def test_linearity_of_taylor_map():
    rng = random.Random(5)
    x1, xi1 = "x1", "xi1"
    for _ in range(10):
        c = rng.randint(-3, 3)
        a = AmplitudeSeries(1, [parse("x1^2", None), parse("x1*xi1", None)])
        b = AmplitudeSeries(1, [parse("x1", None), parse("xi1^2 - x1", None)])
        combo = AmplitudeSeries(1, [a.terms[k] * c + b.terms[k] for k in range(2)])
        lhs = taylor_from_amplitude(combo, 3)
        rhs = taylor_from_amplitude(a, 3).scale(c).add(taylor_from_amplitude(b, 3))
        assert lhs == rhs


def test_taylor_against_rescaling_oracle():
    # Oracle: substituting xi -> h*xi into the amplitude and collecting
    # powers of h must reproduce the symbol components (with 1/alpha!).
    hb = "hb_"
    cases = [
        AmplitudeSeries(1, [parse("x1*xi1^2 + xi1 + 1", None)], ["xi1"]),
        AmplitudeSeries(2, [parse("x1*xi1*xi2 + x2*xi1^2 + xi2", None)], ["xi1", "xi2"]),
    ]
    for amp in cases:
        N = 3
        sym = taylor_from_amplitude(amp, N)
        # build sum_n h^n P^n(x, xi) and a(x, h*xi); they must agree exactly
        h = Expr.var(hb)
        total = Expr.zero()
        for n, comp in enumerate(sym.comps):
            total = total + comp.to_expr(amp.xi_names) * h ** n
        scaled = amp.term(0).substitute(
            {name: Expr.var(name) * h for name in amp.xi_names})
        assert is_zero(total - scaled).ok


def test_taylor_multi_vs_total_convention():
    # a = xi1*xi2: mixed second-order term; 1/alpha! = 1, 1/|alpha|! = 1/2.
    amp = AmplitudeSeries(2, [parse("xi1*xi2", None)], ["xi1", "xi2"])
    sym_multi = taylor_from_amplitude(amp, 2, convention="multi")
    sym_total = taylor_from_amplitude(amp, 2, convention="total")
    c_multi = sym_multi.comps[2].coefficient((1, 1))
    c_total = sym_total.comps[2].coefficient((1, 1))
    assert is_zero(c_multi - Expr.one()).ok
    assert is_zero(c_total - Expr.rational(1, 2)).ok
    # pure powers agree between conventions
    amp2 = AmplitudeSeries(1, [parse("xi1^3", None)], ["xi1"])
    s_m = taylor_from_amplitude(amp2, 3, "multi")
    s_t = taylor_from_amplitude(amp2, 3, "total")
    assert s_m == s_t


def test_taylor_order_zero_is_value_at_zero():
    amp = AmplitudeSeries(1, [parse("exp(i*x1) + xi1*x1", None)], ["xi1"])
    sym = taylor_from_amplitude(amp, 2)
    p0 = sym.comps[0].coefficient((0,))
    assert is_zero(p0 - parse("exp(i*x1)", None)).ok


def test_taylor_smooth_amplitude():
    # amplitudes need not be polynomial in xi
    amp = AmplitudeSeries(1, [parse("exp(xi1*x1)", None)], ["xi1"])
    sym = taylor_from_amplitude(amp, 2)
    assert is_zero(sym.comps[1].coefficient((1,)) - Expr.var("x1")).ok
    assert is_zero(sym.comps[2].coefficient((2,)) - Expr.var("x1") ** 2 * Fraction(1, 2)).ok


def test_xi_decompose_round_trip():
    e = parse("x1*xi1^2 - 3*xi1 + exp(i*x1)", None)
    d = xi_decompose(e, ["xi1"])
    assert set(d) == {(0,), (1,), (2,)}
    assert is_zero(d[(2,)] - Expr.var("x1")).ok
    with pytest.raises(Exception):
        xi_decompose(parse("exp(xi1)", None), ["xi1"], max_degree=4)


def test_serialization_round_trip():
    amp = AmplitudeSeries(2, [parse("x1*xi1*xi2 + x2", None), parse("xi1", None)],
                          ["xi1", "xi2"])
    sym = taylor_from_amplitude(amp, 3)
    text = dump_symbol(sym)
    back = load_symbol(text)
    assert back == sym
