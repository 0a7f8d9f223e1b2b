"""Property tests for the scalar layer of the expression engine.

Kept apart from test_expr.py so that only these tests are skipped when
hypothesis is not installed.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quantact.expr import GaussRat, Poly, _mono_mul, _mono_normalize  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=300, deadline=None,
                               derandomize=True, database=None)

# small ints and Fractions, some of them integral (Fraction(4, 2))
rationals = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
)
gauss = st.builds(GaussRat, rationals, rationals)


def ref(x):
    return (Fraction(x.re), Fraction(x.im))


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


def assert_int_first(x):
    """Each part is an int when integral, else a Fraction with denominator > 1."""
    for part in (x.re, x.im):
        if type(part) is not int:
            assert type(part) is Fraction and part.denominator > 1, repr(part)


@SETTINGS
@hypothesis.given(gauss, gauss, gauss)
def test_gaussrat_field_axioms(a, b, c):
    zero, one = GaussRat(0), GaussRat(1)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero
    assert a - b == a + (-b)
    assert (a * b).conj() == a.conj() * b.conj()
    if not a.is_zero():
        assert a * a.inv() == one


@SETTINGS
@hypothesis.given(gauss, gauss)
def test_gaussrat_agrees_with_fraction_pairs(a, b):
    ra, rb = ref(a), ref(b)
    assert ref(a + b) == (ra[0] + rb[0], ra[1] + rb[1])
    assert ref(a - b) == (ra[0] - rb[0], ra[1] - rb[1])
    assert ref(a * b) == ref_mul(ra, rb)
    assert ref(a.conj()) == (ra[0], -ra[1])
    if not b.is_zero():
        assert ref(b.inv()) == ref_inv(rb)


@SETTINGS
@hypothesis.given(gauss, gauss)
def test_gaussrat_parts_stay_int_first(a, b):
    results = [a, b, a + b, a - b, -a, a * b, a.conj(), GaussRat.of(a.re)]
    if not b.is_zero():
        results += [b.inv(), a * b.inv()]
    for x in results:
        assert_int_first(x)


@SETTINGS
@hypothesis.given(gauss)
def test_gaussrat_hash_ignores_representation(a):
    assert hash(GaussRat(Fraction(4, 2))) == hash(GaussRat(2))
    wide = GaussRat(Fraction(a.re), Fraction(a.im))
    assert wide == a and hash(wide) == hash(a) and wide.key() == a.key()


@st.composite
def monomials(draw):
    names = draw(st.lists(st.sampled_from("xyz"), max_size=3, unique=True))
    pairs = [(("v", n), draw(st.integers(0, 3))) for n in names]
    if draw(st.booleans()):
        # exp(a*x + b*t + c); a zero argument leaves no exp atom
        arg = (Poly.var("x").scalar_mul(GaussRat(draw(st.integers(-2, 2))))
               .add(Poly.var("t").scalar_mul(GaussRat(0, draw(st.integers(-1, 1)))))
               .add(Poly.const(GaussRat(draw(rationals)))))
        if not arg.is_zero():
            pairs.append((("e", arg), 1))
    return _mono_normalize(pairs)


@SETTINGS
@hypothesis.given(monomials(), monomials())
def test_monomial_product_matches_normalize(m1, m2):
    assert _mono_mul(m1, m2) == _mono_normalize(m1 + m2)


nonzero_gauss = gauss.filter(lambda c: not c.is_zero())


@st.composite
def polys(draw, with_exp=True):
    monos = monomials() if with_exp else monomials().filter(
        lambda m: all(gen[0] == "v" for gen, _ in m))
    return Poly(draw(st.dictionaries(monos, nonzero_gauss, max_size=4)))


def snapshot(*ps):
    return [list(p.terms.items()) for p in ps]


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(polys(), polys(), polys(with_exp=False), polys(with_exp=False))
def test_poly_operations_leave_operands_and_term_order(p, q, rx, ry):
    mapping = {"x": rx, "y": ry}
    before = snapshot(p, q, rx, ry)
    p.add(q), p.mul(q), p.subs(mapping, {}), p.diff("x")
    assert snapshot(p, q, rx, ry) == before
    # summing single-monomial results one after another fixes the term order
    for op in (lambda r: r.subs(mapping, {}), lambda r: r.diff("x")):
        expected = Poly.zero()
        for m, c in p.terms.items():
            expected = expected.add(op(Poly({m: c})))
        assert list(op(p).terms.items()) == list(expected.terms.items())
