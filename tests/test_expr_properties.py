"""Property tests for the scalar layer of the expression engine.

Kept apart from test_expr.py so that only these tests are skipped when
hypothesis is not installed.

``Poly`` stores a monomial as one packed int of 32-bit power fields, paired
with its exp argument when it has one.  ``Ref`` below is the kernel it
replaced, with monomials as sorted (generator, power) tuples; it is the
reference for the values, the term order and the walk order of every
operation.
"""

import cmath
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gauss_ref import Gauss  # noqa: E402
from int_first import assert_int_first  # noqa: E402
from quantact import expr  # noqa: E402
from quantact.expr import (Accumulator, Expr, ExprError, Poly, _mono_mul,  # noqa: E402
                           _pair, _pair_inv, is_zero)

SETTINGS = hypothesis.settings(max_examples=300, deadline=None,
                               derandomize=True, database=None)

# small ints and Fractions, some of them integral (Fraction(4, 2))
rationals = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
)
gauss = st.builds(_pair, rationals, rationals)


def ref(x):
    return (Fraction(x[0]), Fraction(x[1]))


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def ref_inv(a):
    n = a[0] * a[0] + a[1] * a[1]
    return (a[0] / n, -a[1] / n)


# the field operations on (re, im) pairs, as the exact stack does them: sums
# and differences through Poly.add, products through the Accumulator
def add(a, b):
    return (Expr.gauss(*a) + Expr.gauss(*b)).const_pair()


def sub(a, b):
    return (Expr.gauss(*a) - Expr.gauss(*b)).const_pair()


def neg(a):
    return (-Expr.gauss(*a)).const_pair()


def mul(a, b):
    acc = Accumulator()
    acc.add(Expr.gauss(*a), b)
    return acc.expr().const_pair()


@SETTINGS
@hypothesis.given(gauss, gauss, gauss)
def test_pair_field_axioms(a, b, c):
    zero, one = (0, 0), (1, 0)
    assert add(a, b) == add(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, zero) == a and mul(a, one) == a
    assert add(a, neg(a)) == zero
    assert sub(a, b) == add(a, neg(b))
    if a != zero:
        assert mul(a, _pair_inv(a)) == one


@SETTINGS
@hypothesis.given(gauss, gauss)
def test_pair_arithmetic_agrees_with_fraction_pairs(a, b):
    ra, rb = ref(a), ref(b)
    assert ref(add(a, b)) == (ra[0] + rb[0], ra[1] + rb[1])
    assert ref(sub(a, b)) == (ra[0] - rb[0], ra[1] - rb[1])
    assert ref(mul(a, b)) == ref_mul(ra, rb)
    assert ref((Expr.gauss(*a) * Expr.gauss(*b)).const_pair()) == ref_mul(ra, rb)
    if b != (0, 0):
        assert ref(_pair_inv(b)) == ref_inv(rb)


@SETTINGS
@hypothesis.given(gauss, gauss)
def test_pair_parts_stay_int_first(a, b):
    results = [a, b, add(a, b), sub(a, b), neg(a), mul(a, b), Expr.gauss(a[0]).const_pair()]
    if b != (0, 0):
        results += [_pair_inv(b), mul(a, _pair_inv(b))]
    for x in results:
        assert_int_first(x)


@SETTINGS
@hypothesis.given(gauss)
def test_pair_form_ignores_representation(a):
    assert _pair(Fraction(4, 2), 0) == (2, 0) and type(_pair(Fraction(4, 2), 0)[0]) is int
    wide = _pair(Fraction(a[0]), Fraction(a[1]))
    assert wide == a and [type(p) for p in wide] == [type(p) for p in a]
    assert Expr.gauss(Fraction(a[0]), Fraction(a[1])).poly.key() == Expr.gauss(*a).poly.key()


# ---------------------------------------------------------------------------
# the generator-tuple kernel, kept as the reference
#
# Generators: ("v", name) for variables, ("e", Ref) for exp atoms.  A
# monomial is a sorted tuple of (generator, power) with power >= 1 and at
# most one exp generator, of power 1; a Ref is a dict monomial -> Gauss.


def _ref_normalize(pairs):
    varpow = {}
    exp_arg = None
    for gen, p in pairs:
        if p == 0:
            continue
        if gen[0] == "v":
            varpow[gen] = varpow.get(gen, 0) + p
        else:
            term = gen[1] if p == 1 else gen[1].scalar_mul(Gauss(p))
            exp_arg = term if exp_arg is None else exp_arg.add(term)
    items = [(g, p) for g, p in varpow.items() if p != 0]
    if exp_arg is not None and exp_arg.terms:
        items.append((("e", exp_arg), 1))
    return tuple(sorted(items))


def _ref_mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[0][0][0] == "e" or m2[0][0][0] == "e":
        return _ref_normalize(m1 + m2)
    powers = dict(m1)
    for gen, p in m2:
        powers[gen] = powers.get(gen, 0) + p
    return tuple(sorted(powers.items()))


def _ref_accumulate(terms, m, c):
    old = terms.get(m)
    if old is None:
        terms[m] = c
        return
    s = old + c
    if s.is_zero():
        del terms[m]
    else:
        terms[m] = s


class Ref:
    """The former Poly, operation for operation."""

    def __init__(self, terms):
        self.terms = terms

    @staticmethod
    def var(name):
        return Ref({((("v", name), 1),): Gauss(1)})

    def key(self):
        return tuple(sorted((m, c.key()) for m, c in self.terms.items()))

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, Ref) and self.key() == other.key()

    def __lt__(self, other):
        return self.key() < other.key()

    def free_names(self):
        out = set()
        for mono in self.terms:
            for gen, _ in mono:
                if gen[0] == "v":
                    out.add(gen[1])
                else:
                    out |= gen[1].free_names()
        return out

    def add(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _ref_accumulate(terms, m, c)
        return Ref(terms)

    def sub(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            old = terms.get(m)
            s = -c if old is None else old - c
            if s.is_zero():
                del terms[m]
            else:
                terms[m] = s
        return Ref(terms)

    def scalar_mul(self, c):
        if c.is_zero():
            return Ref({})
        if c == Gauss(1):
            return self
        return Ref({m: v * c for m, v in self.terms.items()})

    def mul(self, other):
        if len(other.terms) == 1 and () in other.terms:
            return self.scalar_mul(other.terms[()])
        if len(self.terms) == 1 and () in self.terms:
            return other.scalar_mul(self.terms[()])
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _ref_accumulate(out, _ref_mono_mul(m1, m2), c1 * c2)
        return Ref(out)

    def pow(self, n):
        if n == 0:
            return Ref({(): Gauss(1)})
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result.mul(base)
            n >>= 1
            if not n:
                return result
            base = base.mul(base)

    def diff(self, name):
        gen = ("v", name)
        out = {}
        for mono, c in self.terms.items():
            for idx, (g, p) in enumerate(mono):
                if g == gen:
                    rest = mono[:idx] + ((g, p - 1),) + mono[idx + 1:]
                    _ref_accumulate(out, _ref_normalize(rest), c * Gauss(p))
                elif g[0] == "e":
                    darg = g[1].diff(name)
                    for m, dc in darg.mul(Ref({mono: c})).terms.items():
                        _ref_accumulate(out, m, dc)
        return Ref(out)

    def subs(self, mapping):
        out = {}
        for mono, c in self.terms.items():
            image = Ref({(): Gauss(1)})
            for gen, p in mono:
                if gen[0] == "v":
                    rep = mapping.get(gen[1])
                    image = image.mul((rep if rep is not None else Ref.var(gen[1])).pow(p))
                else:
                    arg = gen[1].subs(mapping)
                    atom = (Ref({((("e", arg), 1),): Gauss(1)}) if arg.terms
                            else Ref({(): Gauss(1)}))
                    image = image.mul(atom)
            for m, tc in image.terms.items():
                _ref_accumulate(out, m, tc * c)
        return Ref(out)

    def eval(self, values):
        exact_sum = Gauss(0)
        float_sum = 0j
        for mono, c in self.terms.items():
            exact = c
            approx = 1 + 0j
            is_exact = True
            for gen, p in mono:
                if gen[0] == "v":
                    v = values[gen[1]]
                    if isinstance(v, (int, Fraction)):
                        for _ in range(p):
                            exact = exact * Gauss.of(v)
                    else:
                        approx *= complex(v) ** p
                        is_exact = False
                else:
                    approx *= cmath.exp(gen[1].eval(values)) ** p
                    is_exact = False
            if is_exact:
                exact_sum = exact_sum + exact
            else:
                float_sum += exact.to_complex() * approx
        return exact_sum.to_complex() + float_sum

    def fold(self, zero, const, var, exp):
        total = zero
        for mono, c in self.terms.items():
            term = const(c.key())
            for gen, p in mono:
                if gen[0] == "v":
                    term = term * var(gen[1]) ** p
                else:
                    term = term * exp(gen[1].fold(zero, const, var, exp))
            total = total + term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(),
                              key=lambda t: (sum(p for _, p in t[0]), t[0])):
            factors = []
            for gen, p in mono:
                base = gen[1] if gen[0] == "v" else "exp(%s)" % gen[1]
                factors.append(base if p == 1 else "%s^%d" % (base, p))
            body = "*".join(factors)
            ctxt = expr._gauss_str(c.key())
            if not body:
                piece = "(%s)" % ctxt if (" " in ctxt) else ctxt
            elif c == Gauss(1):
                piece = body
            elif c == Gauss(-1, 0):
                piece = "-%s" % body
            else:
                piece = "%s*%s" % ("(%s)" % ctxt if " " in ctxt else ctxt, body)
            parts.append(piece)
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-") and not piece.startswith("-("):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text


def ref_mono(m):
    """A packed monomial as its generator tuple."""
    arg, powers = expr._split(m)
    pairs = [(("v", name), p) for name, p in powers]
    if arg is not None:
        pairs.append((("e", ref_poly(arg)), 1))
    return tuple(sorted(pairs))


def ref_poly(p):
    """A Poly as a Ref, term for term and in its order."""
    return Ref({ref_mono(m): Gauss(*c) for m, c in p.terms.items()})


def ref_terms(p):
    return list((p if isinstance(p, Ref) else ref_poly(p)).terms.items())


# ---------------------------------------------------------------------------
# strategies: monomials built through the Poly API

# registered out of name order, so that field order and name order differ
NAMES = ["zq", "mq", "aq"]
for _name in NAMES:
    Poly.var(_name)


@st.composite
def monomials(draw, with_exp=True):
    """The monomial key of var(a)^p * var(b)^q * ... [* exp_atom(arg)]."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    mono = Poly.const(1)
    for name in names:
        mono = mono.mul(Poly.var(name).pow(draw(st.sampled_from([0, 1, 1, 2, 3]))))
    if with_exp and draw(st.booleans()):
        # exp(a*zq + b*i*aq + c); a zero argument leaves no exp atom
        arg = (Poly.var("zq").scalar_mul(draw(st.integers(-2, 2)))
               .add(Poly.var("aq").scalar_mul((0, draw(st.integers(-1, 1)))))
               .add(Poly.const(draw(rationals))))
        mono = mono.mul(Poly.exp_atom(arg))
    (m, _), = mono.terms.items()
    return m


@SETTINGS
@hypothesis.given(monomials(), monomials())
def test_monomial_product_matches_normalize(m1, m2):
    assert ref_mono(_mono_mul(m1, m2)) == _ref_normalize(ref_mono(m1) + ref_mono(m2))


# units often, so that sums cancel and a later term re-enters the dict
nonzero_gauss = st.one_of(
    st.sampled_from([(1, 0), (-1, 0), (0, 1), (2, 0)]),
    gauss.filter(lambda c: c != (0, 0)))


@st.composite
def polys(draw, with_exp=True):
    return Poly(draw(st.dictionaries(monomials(with_exp), nonzero_gauss,
                                     max_size=4)))


def snapshot(*ps):
    return [list(p.terms.items()) for p in ps]


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(polys(), polys(), polys(with_exp=False), polys(with_exp=False))
def test_poly_operations_leave_operands_and_term_order(p, q, rx, ry):
    mapping = {"zq": rx, "mq": ry}
    before = snapshot(p, q, rx, ry)
    p.add(q), p.mul(q), p.subs(mapping, {}), p.diff("zq")
    assert snapshot(p, q, rx, ry) == before
    # summing single-monomial results one after another fixes the term order
    for op in (lambda r: r.subs(mapping, {}), lambda r: r.diff("zq")):
        expected = Poly.zero()
        for m, c in p.terms.items():
            expected = expected.add(op(Poly({m: c})))
        assert list(op(p).terms.items()) == list(expected.terms.items())


class Trace:
    """A fold algebra that records the order of its operations."""

    def __init__(self, text):
        self.text = text

    def __add__(self, other):
        return Trace("(%s + %s)" % (self.text, other.text))

    def __mul__(self, other):
        return Trace("(%s * %s)" % (self.text, other.text))

    def __pow__(self, n):
        return Trace("%s^%d" % (self.text, n))


def _trace_fold(p):
    return p.fold(Trace("0"), lambda c: Trace(repr(c)), Trace,
                  lambda a: Trace("exp%s" % a.text))


def _eval_text(p, values):
    """The value's repr, which shows every bit, or the overflow of an exp."""
    try:
        return repr(p.eval(values))
    except OverflowError as exc:
        return "OverflowError: %s" % exc


@pytest.mark.parametrize("with_exp", [False, True], ids=["exp-free", "exp"])
def test_packed_kernel_matches_the_generator_tuple_kernel(with_exp):
    points = st.fixed_dictionaries({name: st.one_of(
        rationals, st.floats(-2, 2, allow_nan=False)) for name in NAMES})

    @hypothesis.settings(SETTINGS, max_examples=80)
    @hypothesis.given(polys(with_exp), polys(with_exp), polys(with_exp),
                      polys(with_exp=False), points)
    def check(p, q, rx, ry, values):
        rp, rq = ref_poly(p), ref_poly(q)
        mapping, images = {"zq": rx, "aq": ry}, {}
        ref_mapping = {k: ref_poly(v) for k, v in mapping.items()}
        pairs = [(p, rp), (q, rq), (p.mul(q), rp.mul(rq)), (p.add(q), rp.add(rq)),
                 (p.sub(q), rp.sub(rq)), (p.pow(3), rp.pow(3)),
                 (p.subs(mapping, images), rp.subs(ref_mapping)),
                 # the images kept by the first call serve the second
                 (q.subs(mapping, images), rq.subs(ref_mapping))]
        pairs += [(p.diff(name), rp.diff(name)) for name in NAMES]
        for got, want in pairs:
            # the terms in their order; through fold, the walk order and the
            # term order of exp arguments; float bits; rendered text
            assert ref_terms(got) == ref_terms(want)
            assert _trace_fold(got).text == _trace_fold(want).text
            assert _eval_text(got, values) == _eval_text(want, values)
            assert str(got) == str(want)
            assert list(got.free_names()) == list(want.free_names())
        assert (p < q) == (rp < rq) and (q < p) == (rq < rp)
        assert (p == q) == (rp == rq)

    check()


def test_a_sum_that_cancels_re_enters_at_the_end():
    # in (1 + zq - zq^2)^2 the zq^2 terms cancel after two of their three
    # contributions, so zq^2 comes back after zq^3, as in the reference
    zq = Poly.var("zq")
    p = Poly.const(1).add(zq).sub(zq.pow(2))
    assert ref_terms(p.mul(p)) == ref_terms(ref_poly(p).mul(ref_poly(p)))
    assert [str(Poly({m: c})) for m, c in p.mul(p).terms.items()] == [
        "1", "2*zq", "-2*zq^3", "-zq^2", "zq^4"]


def test_powers_stop_at_two_to_the_31():
    x = Poly.var("zq")
    top = x.pow(2 ** 31 - 1)
    assert ref_terms(top) == [(((("v", "zq"), 2 ** 31 - 1),), Gauss(1))]
    assert str(top.diff("zq")) == "2147483647*zq^2147483646"
    for make in (lambda: top.mul(x), lambda: x.pow(2 ** 31), lambda: top.mul(top),
                 lambda: x.add(Poly.const(1)).pow(2 ** 31 + 1),
                 lambda: Poly.const(2).pow(2 ** 31)):
        with pytest.raises(ExprError, match="exceeds 2\\^31 - 1"):
            make()
    # a power of c*exp(A) with c in {1, -1, i, -i} stays small, as before
    e = Poly.exp_atom(x).scalar_mul((0, -1)).pow(2 ** 31)
    assert str(e) == "exp(2147483648*zq)"
    assert Poly.zero().pow(2 ** 31).is_zero() and str(Poly.const(-1).pow(2 ** 31 + 1)) == "-1"


def test_the_registry_holds_names_only():
    before = list(expr._NAMES)
    Poly.var("registry_probe")
    Poly.var("registry_probe")
    assert expr._NAMES == before + ["registry_probe"] or "registry_probe" in before
    assert all(type(n) is str for n in expr._NAMES)
    assert len(set(expr._NAMES)) == len(expr._NAMES)
    assert {expr._SHIFTS[n] for n in expr._NAMES} == set(range(0, 32 * len(expr._NAMES), 32))


# ---------------------------------------------------------------------------
# the accumulator against sequential Expr arithmetic


def _as_expr_terms(draw, trees):
    """Exprs from polys(); with ``trees``, some are quotient trees."""
    e = Expr(poly=draw(polys()))
    if trees and draw(st.booleans()):
        e = e / (Expr.var("zq") ** 2 + 1)   # not a monomial: a quotient tree
    return e


@st.composite
def sums(draw, trees):
    """(start, [(a, b)], drop): b is 1, -1 or an Expr."""
    start = _as_expr_terms(draw, trees) if draw(st.booleans()) else None
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        b = draw(st.sampled_from([1, -1, None]))
        terms.append((_as_expr_terms(draw, trees),
                      _as_expr_terms(draw, trees) if b is None else b))
    return start, terms, draw(st.booleans())


def sequential(start, terms, drop):
    """The same sum by + and -, term by term; with ``drop`` an exact zero
    counts as no sum, as a symbol drops the coefficient."""
    total = start
    for a, b in terms:
        if drop and total is not None and total.is_exact_zero():
            total = None
        if total is None:
            total = a * b if type(b) is not int else a if b > 0 else -a
        else:
            total = total + a * b if type(b) is not int else total + a if b > 0 else total - a
    return Expr.zero() if total is None else total


def accumulated(start, terms, drop):
    acc = Accumulator(start, drop=drop)
    for a, b in terms:
        acc.add(a, b)
    return acc.expr()


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(sums(trees=False))
def test_the_accumulator_sums_canonical_terms_to_the_same_key(case):
    want = sequential(*case)
    got = accumulated(*case)
    assert got.is_canonical
    assert got.poly.key() == want.poly.key()


@hypothesis.settings(SETTINGS, max_examples=80)
@hypothesis.given(sums(trees=True))
def test_a_tree_term_continues_in_expr_arithmetic(case):
    # from the first tree term on, the sum has the tree that + and - build
    want = sequential(*case)
    got = accumulated(*case)
    assert str(got) == str(want)
    assert got.is_canonical == want.is_canonical
    assert is_zero(got).kind == is_zero(want).kind


@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(st.integers(4300, 4500), st.integers(4300, 4500),
                  monomials(), monomials(), st.sampled_from([1, -1, 2]))
def test_a_wide_one_term_product_fails_alike_through_the_accumulator(k1, k2, m1, m2, sign):
    # 3^k has 2 bits per factor of 3 in (1.58 k, 1.59 k): the two sides of
    # BIT_BUDGET are both drawn
    a = Expr(poly=Poly({m1: (sign * 3 ** k1, 0)}))
    b = Expr(poly=Poly({m2: (3 ** k2, 0)}))
    outcomes = []
    for product in (lambda: a * b, lambda: accumulated(None, [(a, b)], False)):
        try:
            outcomes.append(product().poly.key())
        except ExprError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert type(outcomes[0]) is str or len(outcomes[0]) == 1


@hypothesis.settings(SETTINGS, max_examples=80)
@hypothesis.given(polys(), polys(), polys(with_exp=False), rationals, gauss, sums(trees=False))
def test_poly_coefficients_stay_int_first(p, q, rx, r, c, case):
    # Fraction parts whose products and sums are integral (1/2 * 2, 1/3 + 2/3)
    # must come out as ints, as _pair forms them
    acc = Accumulator(case[0], drop=case[2])
    for a, b in case[1] + [(Expr(poly=p), Expr.gauss(*c)), (Expr(poly=q), -1)]:
        acc.add(a, b)
    results = [p.add(q), p.sub(q), p.mul(q), p.subs({"zq": rx, "mq": q}, {}), p.diff("zq"),
               p.scalar_mul(r), p.scalar_mul(c), acc.expr().poly]
    for result in results:
        for pair in result.terms.values():
            assert type(pair) is tuple and len(pair) == 2
            assert_int_first(pair)


@hypothesis.settings(SETTINGS, max_examples=40)
@hypothesis.given(sums(trees=False), polys())
def test_the_accumulator_never_changes_a_poly_it_handed_out(case, p):
    acc = Accumulator(case[0], drop=case[2])
    for a, b in case[1]:
        acc.add(a, b)
    first = acc.expr()
    before = list(first.poly.terms.items())
    acc.add(Expr(poly=p))
    acc.add(first, Expr(poly=p))
    assert list(first.poly.terms.items()) == before
    assert acc.expr().poly.key() == (first + Expr(poly=p) + first * Expr(poly=p)).poly.key()


def test_a_lone_term_times_one_comes_back_as_it_is():
    # the jacobian factor 1 of a carrier step makes no copy of the coefficient
    x = Expr(poly=Poly.var("zq").add(Poly.const(Fraction(1, 2))))
    for one in (1, Expr.one()):
        for start in (None, Expr.zero()):
            acc = Accumulator(start)
            acc.add(x, one)
            assert acc.expr() is x
    acc = Accumulator()
    acc.add(x, -1)
    assert acc.expr() is not x and acc.expr() == -x
    acc = Accumulator(x)
    acc.add(x)
    assert acc.expr() == x * 2 and str(x) == "1/2 + zq"
