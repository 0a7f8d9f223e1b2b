"""Exact symbolic expressions over coordinates, parameters and named constants.

Expressions live, whenever possible, in a canonical normal form: a polynomial
with Gaussian-rational coefficients (exact complex numbers a + b*i with
rational a, b) over a set of generators.  Generators are either declared
variable names or exponential atoms exp(P) whose argument P is itself a
canonical polynomial.  Products of exponentials merge, exp(P)*exp(Q) =
exp(P+Q), and exp(0) = 1, so each monomial carries at most one exponential
factor.  Trigonometric functions are rewritten into exponentials on
construction,

    sin(P) = (exp(i*P) - exp(-i*P)) / (2*i),
    cos(P) = (exp(i*P) + exp(-i*P)) / 2,

which makes identities such as sin(P)^2 + cos(P)^2 - 1 cancel exactly.  Two
expressions of the polynomial-exponential-trigonometric class that are equal
as functions have identical canonical forms, so the zero test on that class
is exact.

Division is exact only when the divisor canonicalizes to an invertible
monomial (a nonzero constant, possibly times an exponential atom).  Any other
quotient leaves the canonical class: the result is kept as an opaque quotient
tree, arithmetic on it stays at tree level, and zero testing falls back to
randomized evaluation with an explicitly probabilistic certificate.  Every
check that vanishes on several expressions folds their certificates through
``all_zero``: exact only when each one is.

The text grammar (used by ``parse`` and produced by ``str``):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := ('-'|'+')* power
    power   := atom ('^' exponent)*          # integer exponents only
    atom    := integer | ident | 'i' | func '(' expr ')' | '(' expr ')'
    func    := 'exp' | 'sin' | 'cos'

Identifiers must be declared in the VarBinding passed to ``parse``;
``i`` is the imaginary unit and ``exp``/``sin``/``cos`` are reserved.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction

_RESERVED = {"i", "exp", "sin", "cos"}


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    """Syntax or name error, carrying the character position."""

    def __init__(self, message, pos, text=None):
        self.pos = pos
        self.text = text
        detail = "%s (at position %d)" % (message, pos)
        if text is not None:
            detail += "\n  %s\n  %s^" % (text, " " * pos)
        super().__init__(detail)


# ---------------------------------------------------------------------------
# Gaussian rationals


def _int_or_fraction(v):
    """v as an int when it is integral, else as a Fraction (denominator > 1)."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError("expected int or Fraction, got %r" % (v,))


class GaussRat:
    """Exact complex number a + b*i with rational a, b.

    Each part is stored as an ``int`` when it is integral and as a
    ``Fraction`` only when its denominator exceeds 1, so the common integer
    case costs integer arithmetic.  Equality, hashing and rendering do not
    see the difference: ``3 == Fraction(3)`` and both hash alike.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _int_or_fraction(re))
        object.__setattr__(self, "im", _int_or_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    @staticmethod
    def of(v):
        if isinstance(v, GaussRat):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussRat(v, 0)
        raise TypeError("cannot build GaussRat from %r" % (v,))

    def __add__(self, other):
        other = GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = GaussRat.of(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussRat.of(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        # through Fraction: int / int would be a float
        return GaussRat(Fraction(self.re) / n, Fraction(-self.im) / n)

    def conj(self):
        return GaussRat(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if not isinstance(other, GaussRat):
            try:
                other = GaussRat.of(other)
            except TypeError:
                return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def key(self):
        return (self.re, self.im)

    def to_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)


GR_ZERO = GaussRat(0, 0)
GR_ONE = GaussRat(1, 0)
GR_I = GaussRat(0, 1)
GR_MINUS_I = GaussRat(0, -1)


def _frac_str(f):
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _gauss_str(c):
    # Grammar-conformant rendering; caller adds parentheses when needed.
    if c.im == 0:
        return _frac_str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return "%s*i" % _frac_str(c.im)
    im = c.im
    sign = "+" if im > 0 else "-"
    imabs = abs(im)
    imtxt = "i" if imabs == 1 else "%s*i" % _frac_str(imabs)
    return "%s %s %s" % (_frac_str(c.re), sign, imtxt)


# ---------------------------------------------------------------------------
# Canonical polynomials
#
# Generator keys: ("v", name) for variables, ("e", polykey) for exp atoms.
# A monomial is a sorted tuple of (generator, power) with power >= 1 and at
# most one exponential generator (power exactly 1).  A polynomial is a dict
# monomial -> nonzero GaussRat.


def _mono_normalize(pairs):
    """Merge exponential factors of a raw (generator, power) sequence."""
    varpow = {}
    exp_arg = None
    for gen, p in pairs:
        if p == 0:
            continue
        if gen[0] == "v":
            varpow[gen] = varpow.get(gen, 0) + p
        else:
            arg = Poly._from_key(gen[1])
            term = arg if p == 1 else arg.scalar_mul(GaussRat(p))
            exp_arg = term if exp_arg is None else exp_arg.add(term)
    items = [(g, p) for g, p in varpow.items() if p != 0]
    for g, p in items:
        if p < 0:
            raise ExprError("negative power of variable %s" % g[1])
    if exp_arg is not None and exp_arg.terms:
        items.append((("e", exp_arg.key()), 1))
    return tuple(sorted(items))


def _mono_mul(m1, m2):
    """Product of two normalized monomials, as ``_mono_normalize(m1 + m2)``.

    Exp-free monomials multiply by adding variable powers; an exp generator
    sorts first, so only index 0 needs a look.
    """
    if not m1:
        return m2
    if not m2:
        return m1
    if m1[0][0][0] == "e" or m2[0][0][0] == "e":
        return _mono_normalize(m1 + m2)
    powers = dict(m1)
    for gen, p in m2:
        powers[gen] = powers.get(gen, 0) + p
    return tuple(sorted(powers.items()))


def _accumulate(terms, m, c):
    """Add the nonzero term c*m into ``terms`` in place, dropping a zero sum."""
    old = terms.get(m)
    if old is None:
        terms[m] = c
        return
    s = old + c
    if s.is_zero():
        del terms[m]
    else:
        terms[m] = s


class Poly:
    """Canonical polynomial over variables and exponential atoms."""

    __slots__ = ("terms", "_key", "_hash")

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # construction ---------------------------------------------------------

    @staticmethod
    def zero():
        return Poly({})

    @staticmethod
    def const(c):
        c = GaussRat.of(c)
        return Poly({(): c} if not c.is_zero() else {})

    @staticmethod
    def var(name):
        return Poly({((("v", name), 1),): GR_ONE})

    @staticmethod
    def exp_atom(arg):
        if not arg.terms:
            return Poly.const(GR_ONE)
        return Poly({((("e", arg.key()), 1),): GR_ONE})

    @staticmethod
    def _from_key(key):
        return Poly({mono: GaussRat(re, im) for mono, (re, im) in key})

    # structure ------------------------------------------------------------

    def key(self):
        if self._key is None:
            k = tuple(sorted((m, c.key()) for m, c in self.terms.items()))
            object.__setattr__(self, "_key", k)
        return self._key

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self.key()))
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Poly) and self.key() == other.key()

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self):
        if not self.terms:
            return GR_ZERO
        return self.terms.get(())

    def free_names(self):
        out = set()
        for mono in self.terms:
            for gen, _ in mono:
                if gen[0] == "v":
                    out.add(gen[1])
                else:
                    out |= Poly._from_key(gen[1]).free_names()
        return out

    # arithmetic -----------------------------------------------------------

    def add(self, other):
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(terms, m, c)
        return Poly(terms)

    def neg(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scalar_mul(self, c):
        c = GaussRat.of(c)
        if c.is_zero():
            return Poly.zero()
        return Poly({m: v * c for m, v in self.terms.items()})

    def mul(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _accumulate(out, _mono_mul(m1, m2), c1 * c2)
        return Poly(out)

    def pow(self, n):
        if n < 0:
            raise ExprError("negative power at polynomial level")
        if n == 0:
            return Poly.const(GR_ONE)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result.mul(base)
            n >>= 1
            if not n:
                return result
            base = base.mul(base)

    def invert_monomial(self):
        """Inverse, defined when the polynomial is c*exp(A) with c != 0."""
        if len(self.terms) != 1:
            return None
        (mono, c), = self.terms.items()
        for gen, p in mono:
            if gen[0] == "v":
                return None
        inv = Poly.const(c.inv())
        for gen, p in mono:
            arg = Poly._from_key(gen[1]).scalar_mul(GaussRat(-p))
            inv = inv.mul(Poly.exp_atom(arg))
        return inv

    # calculus -------------------------------------------------------------

    def diff(self, name):
        gen = ("v", name)
        out = {}
        for mono, c in self.terms.items():
            for idx, (g, p) in enumerate(mono):
                if g == gen:
                    rest = mono[:idx] + ((g, p - 1),) + mono[idx + 1:]
                    _accumulate(out, _mono_normalize(rest), c * GaussRat(p))
                elif g[0] == "e":
                    darg = Poly._from_key(g[1]).diff(name)
                    for m, dc in darg.mul(Poly({mono: c})).terms.items():
                        _accumulate(out, m, dc)
        return Poly(out)

    def subs(self, mapping):
        """Substitute variables by Polys; mapping: name -> Poly."""
        out = {}
        powers = {}
        for mono, c in self.terms.items():
            term = Poly.const(c)
            for gen, p in mono:
                if gen[0] == "v":
                    factor = powers.get((gen[1], p))
                    if factor is None:
                        rep = mapping.get(gen[1])
                        factor = (rep if rep is not None else Poly.var(gen[1])).pow(p)
                        powers[(gen[1], p)] = factor
                    term = term.mul(factor)
                else:
                    arg = Poly._from_key(gen[1]).subs(mapping)
                    term = term.mul(Poly.exp_atom(arg))
            for m, tc in term.terms.items():
                _accumulate(out, m, tc)
        return Poly(out)

    def eval(self, values):
        """Evaluate at a point; values: name -> complex/int/Fraction/GaussRat.

        Rational arithmetic is kept exact and only converted to floating
        point where an exponential forces it (or at the final boundary).
        """
        exact_sum = GR_ZERO
        float_sum = 0j
        for mono, c in self.terms.items():
            exact = c
            approx = 1 + 0j
            is_exact = True
            for gen, p in mono:
                if gen[0] == "v":
                    name = gen[1]
                    if name not in values:
                        raise ExprError("no value for variable %s" % name)
                    v = values[name]
                    if isinstance(v, (int, Fraction, GaussRat)):
                        exact = exact * _gr_pow(GaussRat.of(v), p)
                    else:
                        approx *= complex(v) ** p
                        is_exact = False
                else:
                    arg = Poly._from_key(gen[1]).eval(values)
                    approx *= cmath.exp(arg) ** p
                    is_exact = False
            if is_exact:
                exact_sum = exact_sum + exact
            else:
                float_sum += exact.to_complex() * approx
        return exact_sum.to_complex() + float_sum

    # rendering ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(), key=lambda t: _mono_sort_key(t[0])):
            factors = []
            for gen, p in mono:
                if gen[0] == "v":
                    base = gen[1]
                else:
                    base = "exp(%s)" % Poly._from_key(gen[1])
                factors.append(base if p == 1 else "%s^%d" % (base, p))
            body = "*".join(factors)
            ctxt = _gauss_str(c)
            if not body:
                piece = "(%s)" % ctxt if (" " in ctxt) else ctxt
            elif c == GR_ONE:
                piece = body
            elif c == GaussRat(-1, 0):
                piece = "-%s" % body
            else:
                if " " in ctxt:
                    ctxt = "(%s)" % ctxt
                piece = "%s*%s" % (ctxt, body)
            parts.append(piece)
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-") and not piece.startswith("-("):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text


def _gr_pow(c, p):
    out = GR_ONE
    for _ in range(p):
        out = out * c
    return out


def _mono_sort_key(mono):
    # total degree first, then lexicographic on the generator structure
    deg = sum(p for _, p in mono)
    return (deg, mono)


# ---------------------------------------------------------------------------
# Expressions: canonical polynomials plus an opaque quotient fallback


class Expr:
    """Immutable expression; canonical where possible (see module docstring)."""

    __slots__ = ("poly", "node")

    def __init__(self, poly=None, node=None):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "node", node)

    def __setattr__(self, name, value):
        raise AttributeError("Expr is immutable")

    # constructors ----------------------------------------------------------

    @staticmethod
    def zero():
        return Expr(poly=Poly.zero())

    @staticmethod
    def one():
        return Expr(poly=Poly.const(GR_ONE))

    @staticmethod
    def integer(n):
        return Expr(poly=Poly.const(GaussRat(n)))

    @staticmethod
    def rational(num, den=1):
        return Expr(poly=Poly.const(GaussRat(Fraction(num, den))))

    @staticmethod
    def gauss(re, im=0):
        return Expr(poly=Poly.const(GaussRat(re, im)))

    @staticmethod
    def imag_unit():
        return Expr(poly=Poly.const(GR_I))

    @staticmethod
    def var(name):
        if name in _RESERVED:
            raise ExprError("%r is reserved" % name)
        return Expr(poly=Poly.var(name))

    @staticmethod
    def exp(e):
        e = as_expr(e)
        if e.poly is not None:
            return Expr(poly=Poly.exp_atom(e.poly))
        return Expr(node=("exp", e))

    @staticmethod
    def sin(e):
        e = as_expr(e)
        if e.poly is not None:
            i_e = e * Expr.imag_unit()
            return (Expr.exp(i_e) - Expr.exp(-i_e)) * Expr.gauss(0, Fraction(-1, 2))
        return Expr(node=("sin", e))

    @staticmethod
    def cos(e):
        e = as_expr(e)
        if e.poly is not None:
            i_e = e * Expr.imag_unit()
            return (Expr.exp(i_e) + Expr.exp(-i_e)) * Expr.rational(1, 2)
        return Expr(node=("cos", e))

    # predicates ------------------------------------------------------------

    @property
    def is_canonical(self):
        return self.poly is not None

    def is_const(self):
        return self.poly is not None and self.poly.is_const()

    def const_value(self):
        if not self.is_const():
            raise ExprError("not a constant")
        return self.poly.const_value() or GR_ZERO

    def free_names(self):
        if self.poly is not None:
            return self.poly.free_names()
        out = set()
        for child in self.node[1:]:
            if isinstance(child, Expr):
                out |= child.free_names()
        return out

    # arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = as_expr(other)
        if self.poly is not None and other.poly is not None:
            return Expr(poly=self.poly.add(other.poly))
        return Expr(node=("add", self, other))

    __radd__ = __add__

    def __neg__(self):
        if self.poly is not None:
            return Expr(poly=self.poly.neg())
        return Expr(node=("neg", self))

    def __sub__(self, other):
        return self + (-as_expr(other))

    def __rsub__(self, other):
        return as_expr(other) + (-self)

    def __mul__(self, other):
        other = as_expr(other)
        if self.poly is not None and other.poly is not None:
            return Expr(poly=self.poly.mul(other.poly))
        return Expr(node=("mul", self, other))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ExprError("exponents must be integers")
        if n >= 0:
            if self.poly is not None:
                return Expr(poly=self.poly.pow(n))
            return Expr(node=("pow", self, n))
        return Expr.one() / (self ** (-n))

    def __truediv__(self, other):
        other = as_expr(other)
        if self.poly is not None and other.poly is not None:
            if other.poly.is_zero():
                raise ZeroDivisionError("division by symbolic zero")
            inv = other.poly.invert_monomial()
            if inv is not None:
                return Expr(poly=self.poly.mul(inv))
        if other.poly is not None and other.poly.is_zero():
            raise ZeroDivisionError("division by symbolic zero")
        return Expr(node=("quot", self, other))

    def __rtruediv__(self, other):
        return as_expr(other) / self

    # calculus ---------------------------------------------------------------

    def diff(self, name):
        if self.poly is not None:
            return Expr(poly=self.poly.diff(name))
        kind = self.node[0]
        if kind == "add":
            return self.node[1].diff(name) + self.node[2].diff(name)
        if kind == "neg":
            return -self.node[1].diff(name)
        if kind == "mul":
            a, b = self.node[1], self.node[2]
            return a.diff(name) * b + a * b.diff(name)
        if kind == "quot":
            a, b = self.node[1], self.node[2]
            return Expr(node=("quot", a.diff(name) * b - a * b.diff(name), b * b))
        if kind == "pow":
            a, n = self.node[1], self.node[2]
            return Expr.integer(n) * a ** (n - 1) * a.diff(name)
        if kind == "exp":
            return self.node[1].diff(name) * self
        if kind == "sin":
            return self.node[1].diff(name) * Expr.cos(self.node[1])
        if kind == "cos":
            return -self.node[1].diff(name) * Expr.sin(self.node[1])
        raise ExprError("cannot differentiate node %r" % kind)

    def substitute(self, mapping):
        """Replace variables; mapping: name -> Expr (or int/Fraction)."""
        mapping = {k: as_expr(v) for k, v in mapping.items()}
        if self.poly is not None:
            if all(v.poly is not None for v in mapping.values()):
                return Expr(poly=self.poly.subs({k: v.poly for k, v in mapping.items()}))
            # rebuild through tree arithmetic
            return _poly_rebuild(self.poly, mapping)
        kind = self.node[0]
        if kind == "quot":
            return self.node[1].substitute(mapping) / self.node[2].substitute(mapping)
        if kind == "add":
            return self.node[1].substitute(mapping) + self.node[2].substitute(mapping)
        if kind == "neg":
            return -self.node[1].substitute(mapping)
        if kind == "mul":
            return self.node[1].substitute(mapping) * self.node[2].substitute(mapping)
        if kind == "pow":
            return self.node[1].substitute(mapping) ** self.node[2]
        if kind == "exp":
            return Expr.exp(self.node[1].substitute(mapping))
        if kind == "sin":
            return Expr.sin(self.node[1].substitute(mapping))
        if kind == "cos":
            return Expr.cos(self.node[1].substitute(mapping))
        raise ExprError("cannot substitute into node %r" % kind)

    def eval(self, values):
        if self.poly is not None:
            return self.poly.eval(values)
        kind = self.node[0]
        if kind == "add":
            return self.node[1].eval(values) + self.node[2].eval(values)
        if kind == "neg":
            return -self.node[1].eval(values)
        if kind == "mul":
            return self.node[1].eval(values) * self.node[2].eval(values)
        if kind == "quot":
            den = self.node[2].eval(values)
            if den == 0:
                raise ZeroDivisionError("denominator vanishes at evaluation point")
            return self.node[1].eval(values) / den
        if kind == "pow":
            return self.node[1].eval(values) ** self.node[2]
        if kind == "exp":
            return cmath.exp(self.node[1].eval(values))
        if kind == "sin":
            return cmath.sin(self.node[1].eval(values))
        if kind == "cos":
            return cmath.cos(self.node[1].eval(values))
        raise ExprError("cannot evaluate node %r" % kind)

    # comparison ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Expr):
            try:
                other = as_expr(other)
            except TypeError:
                return NotImplemented
        if self.poly is not None and other.poly is not None:
            return self.poly == other.poly
        return self is other or self.node == other.node

    def __hash__(self):
        if self.poly is not None:
            return hash(self.poly)
        return hash(("tree", self.node))

    def __str__(self):
        if self.poly is not None:
            return str(self.poly)
        kind = self.node[0]
        if kind == "quot":
            return "(%s)/(%s)" % (self.node[1], self.node[2])
        if kind == "add":
            return "(%s) + (%s)" % (self.node[1], self.node[2])
        if kind == "neg":
            return "-(%s)" % self.node[1]
        if kind == "mul":
            return "(%s)*(%s)" % (self.node[1], self.node[2])
        if kind == "pow":
            return "(%s)^%d" % (self.node[1], self.node[2])
        return "%s(%s)" % (kind, self.node[1])

    __repr__ = __str__


def as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, int):
        return Expr.integer(v)
    if isinstance(v, Fraction):
        return Expr(poly=Poly.const(GaussRat(v)))
    if isinstance(v, GaussRat):
        return Expr(poly=Poly.const(v))
    raise TypeError("cannot coerce %r to Expr" % (v,))


def _poly_rebuild(poly, mapping):
    out = Expr.zero()
    for mono, c in poly.terms.items():
        term = Expr(poly=Poly.const(c))
        for gen, p in mono:
            if gen[0] == "v":
                rep = mapping.get(gen[1], Expr.var(gen[1]))
                term = term * rep ** p
            else:
                arg = Expr(poly=Poly._from_key(gen[1])).substitute(mapping)
                term = term * Expr.exp(arg)
        out = out + term
    return out


# ---------------------------------------------------------------------------
# Zero testing


@dataclass(frozen=True)
class ZeroCheck:
    ok: bool
    kind: str          # "exact" or "probabilistic"
    detail: str = ""


def all_zero(checks):
    """One certificate for several zero checks.

    It passes iff every check passes, and it is exact iff every check is
    exact (an empty input passes exactly).  Every check is consumed, so the
    rng draws of later checks never depend on an earlier failure.
    """
    checks = list(checks)
    exact = all(c.kind == "exact" for c in checks)
    return ZeroCheck(all(c.ok for c in checks), "exact" if exact else "probabilistic")


def is_zero(e, rng=None, points=20, tol=1e-9):
    """Zero test with certificate.

    Canonical expressions are decided exactly.  Expressions outside the
    canonical class (quotient trees) are sampled at ``points`` random rational
    points; a nonzero function passes all samples only with negligible
    probability, and the certificate is marked probabilistic.  Draws that hit
    a pole are redrawn, up to 10 * ``points`` draws in all; if too few points
    could be evaluated the test is undecided and reports not-zero.
    """
    e = as_expr(e)
    if e.poly is not None:
        return ZeroCheck(e.poly.is_zero(), "exact")
    rng = rng if rng is not None else random.Random(20260814)
    names = sorted(e.free_names())
    tried = 0
    draws = 0
    worst = 0.0
    while tried < points:
        if draws == 10 * points:
            return ZeroCheck(False, "probabilistic",
                             "undecided: %d of %d draws hit a pole"
                             % (draws - tried, draws))
        draws += 1
        values = {n: Fraction(rng.randint(-999, 999), rng.randint(1, 99)) for n in names}
        try:
            v = e.eval(values)
        except ZeroDivisionError:
            continue
        tried += 1
        worst = max(worst, abs(v))
        if abs(v) > tol:
            return ZeroCheck(False, "probabilistic",
                             "nonzero value %.3e at sample %d" % (abs(v), tried))
    return ZeroCheck(True, "probabilistic",
                     "max |value| %.3e over %d samples" % (worst, tried))


# ---------------------------------------------------------------------------
# Variable bindings


class VarBinding:
    """Declared names with roles: coordinate, parameter or constant."""

    def __init__(self, coordinates=(), parameters=(), constants=()):
        self.coordinates = list(coordinates)
        self.parameters = list(parameters)
        self.constants = list(constants)
        seen = set()
        for name in self.names():
            if not name or not (name[0].isalpha()):
                raise ExprError("invalid identifier %r" % name)
            if any(not (ch.isalnum() or ch == "_") for ch in name):
                raise ExprError("invalid identifier %r" % name)
            if name in _RESERVED:
                raise ExprError("%r is reserved" % name)
            if name in seen:
                raise ExprError("duplicate name %r" % name)
            seen.add(name)

    def names(self):
        return self.coordinates + self.parameters + self.constants

    @property
    def dim(self):
        return len(self.coordinates)

    def extend(self, parameters=(), constants=()):
        return VarBinding(self.coordinates,
                          self.parameters + list(parameters),
                          self.constants + list(constants))

    def __contains__(self, name):
        return name in self.names()

    def __repr__(self):
        return "VarBinding(coordinates=%r, parameters=%r, constants=%r)" % (
            self.coordinates, self.parameters, self.constants)


# ---------------------------------------------------------------------------
# Parser


_FUNCS = {"exp": Expr.exp, "sin": Expr.sin, "cos": Expr.cos}


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._run()
        self.idx = 0

    def _run(self):
        text, n = self.text, len(self.text)
        i = 0
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(("int", int(text[i:j]), i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("name", text[i:j], i))
                i = j
                continue
            if ch in "+-*/^(),":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ParseError("unexpected character %r" % ch, i, text)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


class _Parser:
    def __init__(self, text, binding):
        self.text = text
        self.toks = _Tokenizer(text)
        self.binding = binding

    def parse(self):
        e = self._expr()
        kind, _, pos = self.toks.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", pos, self.text)
        return e

    def _expr(self):
        e = self._term()
        while True:
            kind, _, _ = self.toks.peek()
            if kind == "+":
                self.toks.next()
                e = e + self._term()
            elif kind == "-":
                self.toks.next()
                e = e - self._term()
            else:
                return e

    def _term(self):
        e = self._factor()
        while True:
            kind, _, pos = self.toks.peek()
            if kind == "*":
                self.toks.next()
                e = e * self._factor()
            elif kind == "/":
                self.toks.next()
                try:
                    e = e / self._factor()
                except ZeroDivisionError:
                    raise ParseError("division by zero", pos, self.text)
            else:
                return e

    def _factor(self):
        kind, _, _ = self.toks.peek()
        if kind == "-":
            self.toks.next()
            return -self._factor()
        if kind == "+":
            self.toks.next()
            return self._factor()
        return self._power()

    def _power(self):
        e = self._atom()
        while True:
            kind, _, pos = self.toks.peek()
            if kind != "^":
                return e
            self.toks.next()
            n = self._exponent()
            try:
                e = e ** n
            except ZeroDivisionError:
                raise ParseError("zero raised to a negative power", pos, self.text)

    def _exponent(self):
        kind, val, pos = self.toks.next()
        sign = 1
        if kind == "-":
            sign = -1
            kind, val, pos = self.toks.next()
        if kind == "(":
            inner = self._exponent()
            kind2, _, pos2 = self.toks.next()
            if kind2 != ")":
                raise ParseError("expected ')' after exponent", pos2, self.text)
            return sign * inner
        if kind != "int":
            raise ParseError("exponent must be an integer", pos, self.text)
        return sign * val

    def _atom(self):
        kind, val, pos = self.toks.next()
        if kind == "int":
            return Expr.integer(val)
        if kind == "(":
            e = self._expr()
            kind2, _, pos2 = self.toks.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2, self.text)
            return e
        if kind == "name":
            if val == "i":
                return Expr.imag_unit()
            if val in _FUNCS:
                kind2, _, pos2 = self.toks.next()
                if kind2 != "(":
                    raise ParseError("expected '(' after %s" % val, pos2, self.text)
                arg = self._expr()
                kind3, _, pos3 = self.toks.next()
                if kind3 != ")":
                    raise ParseError("expected ')' closing %s" % val, pos3, self.text)
                return _FUNCS[val](arg)
            if self.binding is not None and val not in self.binding:
                raise ParseError("undeclared identifier %r" % val, pos, self.text)
            return Expr.var(val)
        raise ParseError("unexpected token", pos, self.text)


def parse(text, binding=None):
    """Parse grammar text into an Expr; names checked against the binding."""
    return _Parser(text, binding).parse()
