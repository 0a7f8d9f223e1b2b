"""Exact symbolic expressions over coordinates, parameters and named constants.

Expressions live, whenever possible, in a canonical normal form: a polynomial
with Gaussian-rational coefficients (exact complex numbers a + b*i with
rational a, b) over a set of generators.  Generators are either declared
variable names or exponential atoms exp(P) whose argument P is itself a
canonical polynomial.  Products of exponentials merge, exp(P)*exp(Q) =
exp(P+Q), and exp(0) = 1, so each monomial carries at most one exponential
factor.  Trigonometric functions are rewritten into exponentials on
construction, for a tree argument too,

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

A polynomial is a dict monomial -> nonzero (re, im) pair, each part an int
when integral, else a Fraction with denominator > 1.  A monomial is one
packed int (0 for the constant): each variable owns a 32-bit power field, at
an offset from an append-only registry of names, filled under a lock on
first use; the registry keeps names only, never a result.  Powers stop at
2^31 - 1, so the top bit of each field guards a sum, and an exp-free product
is one int addition.  A monomial with an exp atom is the pair (int, argument
Poly).  Walks that fix an order (``key``, ``str``, ``eval``, ``fold``,
``subs``, ``free_names``) visit the exp atom first, then the names in order.
Sums and products add in place into such a dict (``_mac``, ``_add_scaled``),
which is then the Poly itself: ``Accumulator`` sums a_1*b_1 + a_2*b_2 + ... so
for each coefficient of a cochain sum, a star product or a face sum, hands its
dict over, and falls back to Expr arithmetic, in order, from its first tree
term on.

Sampling (``Expr.eval``), substitution (``substitution``) and grid
evaluation (``numfio.eval_expr``) are folds: ``Expr.fold`` combines tree nodes
in a chosen algebra (``cmath``, ``numpy`` or ``Expr``) and hands each canonical
part to a leaf function, and ``Poly.fold`` evaluates a polynomial in such an
algebra term by term.  No other module reads tree nodes or monomial keys.

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
import operator
import random
import threading
from collections import namedtuple
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


def _pair(re, im):
    """(re, im), each part an int when integral, else a Fraction (denominator > 1)."""
    return _int_or_fraction(re), _int_or_fraction(im)


def _pair_inv(c):
    """The inverse of a nonzero (re, im) pair, as ``_pair`` forms it."""
    n = c[0] * c[0] + c[1] * c[1]
    # through Fraction, which refuses n = 0: int / int would be a float
    return _pair(Fraction(c[0], n), Fraction(-c[1], n))


class GaussRat:
    """Exact complex number a + b*i with rational a, b: the scalar at the API
    edges of ``expr`` (``const_value``, ``Expr`` constructors, ``eval`` and
    ``fold`` leaves); Polys, basis coordinates and ``linalg`` hold (re, im) pairs.

    Each part is stored as an ``int`` when it is integral and as a
    ``Fraction`` only when its denominator exceeds 1, so the common integer
    case costs integer arithmetic.  Equality, hashing and rendering do not
    see the difference: ``3 == Fraction(3)`` and both hash alike.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = _pair(re, im)

    @staticmethod
    def of(v):
        if isinstance(v, GaussRat):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussRat(v, 0)
        raise TypeError("cannot build GaussRat from %r" % (v,))

    def __add__(self, other):
        other = other if type(other) is GaussRat else GaussRat.of(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = other if type(other) is GaussRat else GaussRat.of(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        other = other if type(other) is GaussRat else GaussRat.of(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inv(self):
        return GaussRat(*_pair_inv(self.key()))

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


def _frac_str(f):
    # the budgets bound powers and one-term products before they are made;
    # any other coefficient past BIT_BUDGET bits stops here, where it renders
    if (bits := (abs(f.numerator) | f.denominator).bit_length()) > BIT_BUDGET:
        raise ExprError("a coefficient part of %d bits is too wide to render (more than %d)"
                        % (bits, BIT_BUDGET))
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _gauss_str(c):
    # Grammar-conformant rendering of an (re, im) pair; caller adds parentheses when needed.
    re, im = c
    if im == 0:
        return _frac_str(re)
    imtxt = "i" if abs(im) == 1 else "%s*i" % _frac_str(abs(im))
    if re == 0:
        return imtxt if im > 0 else "-" + imtxt
    return "%s %s %s" % (_frac_str(re), "+" if im > 0 else "-", imtxt)


# ---------------------------------------------------------------------------
# Canonical polynomials: packed monomials (module docstring)

_MAX_POWER = (1 << 31) - 1
TERM_BUDGET = 1000  # most terms a power or a substituted monomial may reach
BIT_BUDGET = 14_000  # most bits a power's coefficient may reach: < 4,300 digits
_FIELD = (1 << 32) - 1
_NAMES = []         # field index -> variable name
_SHIFTS = {}        # variable name -> bit offset of its power field
_GUARD = 0          # the top bit of every registered field
_REGISTRY_LOCK = threading.Lock()


def _shift(name):
    """Bit offset of the power field of ``name``, registered on first use."""
    global _GUARD
    if name not in _SHIFTS:
        with _REGISTRY_LOCK:
            if name not in _SHIFTS:
                _NAMES.append(name)
                _GUARD |= 1 << (32 * len(_NAMES) - 1)
                _SHIFTS[name] = 32 * (len(_NAMES) - 1)   # last: readers take no lock
    return _SHIFTS[name]


def _split(mono):
    """(exp argument or None, [(name, power)] by name) of a monomial."""
    v, arg = (mono, None) if type(mono) is int else mono
    fields = range((v.bit_length() + 31) // 32)
    return arg, sorted((_NAMES[k], p) for k in fields if (p := v >> 32 * k & _FIELD))


def _mono_mul(m1, m2):
    """Product of two monomials: powers add, exp arguments add."""
    v1, a1 = (m1, None) if type(m1) is int else m1
    v2, a2 = (m2, None) if type(m2) is int else m2
    v = v1 + v2
    if v & _GUARD:
        name, p = max(_split(v)[1], key=lambda item: item[1])
        raise ExprError("power %d of %s exceeds 2^31 - 1" % (p, name))
    arg = a2 if a1 is None else a1 if a2 is None else a1.add(a2)
    return v if arg is None or not arg.terms else (v, arg)


def _mac(acc, terms1, terms2):
    """acc += terms1 * terms2 for Poly dicts, acc one too; a zero sum leaves
    acc.  A Fraction part makes both parts of a product Fractions, and an
    int sum added to an int-first part leaves it int-first: only a sum whose
    real part is no int is normalized."""
    guard = _GUARD
    rows = [(m2, type(m2) is int, r2, i2) for m2, (r2, i2) in terms2.items()]
    for m1, (r1, i1) in terms1.items():
        packed = type(m1) is int
        for m2, packed2, r2, i2 in rows:
            if packed and packed2:
                m = m1 + m2
                if m & guard:
                    _mono_mul(m1, m2)   # raises the overflow
            else:
                m = _mono_mul(m1, m2)
            r = r1 * r2 - i1 * i2
            i = r1 * i2 + i1 * r2
            old = acc.get(m)
            if old is not None:
                r += old[0]
                i += old[1]
                if not (r or i):
                    del acc[m]
                    continue
            acc[m] = (r, i) if type(r) is int else _pair(r, i)


def _add_scaled(acc, terms, r2, i2):
    """acc += (r2 + i2*i) * terms for (monomial, (re, im)) items, as ``_mac``
    by a constant would add them."""
    for m, (r1, i1) in terms:
        r, i = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
        old = acc.get(m)
        if old is not None:
            r += old[0]
            i += old[1]
            if not (r or i):
                del acc[m]
                continue
        acc[m] = (r, i) if type(r) is int else _pair(r, i)


def _check_product(p1, p2):
    """As for a one-term power, a product of one-term factors (a product of
    powers) has one coefficient, of parts of at most b1 + b2 bits: refused past
    BIT_BUDGET before ``Poly.mul`` or ``Accumulator`` forms it."""
    if len(p1.terms) == 1 == len(p2.terms):
        b1, b2 = _bits(p1), _bits(p2)
        if b1 + b2 > BIT_BUDGET:
            raise ExprError("a product of coefficients of %d and %d bits may pass %d bits"
                            % (b1, b2, BIT_BUDGET))


def _arg_sizes(poly):
    """The size of each exp argument of ``poly``: its terms, the terms of
    their own exp arguments counted in."""
    return [len(m[1].terms) + sum(_arg_sizes(m[1])) for m in poly.terms if type(m) is not int]


def _bits(poly):
    """Bits of the widest numerator or denominator among the coefficients'
    parts: the top bit of their bitwise or."""
    top = 0
    for c in poly.terms.values():
        for q in c:
            top |= abs(q) if type(q) is int else abs(q.numerator) | q.denominator
    return top.bit_length()


class Poly:
    """Canonical polynomial over variables and exponential atoms."""

    __slots__ = ("terms", "_key", "_hash")

    def __init__(self, terms):
        self.terms = terms
        self._key = None
        self._hash = None

    # construction ---------------------------------------------------------

    @staticmethod
    def zero():
        return Poly({})

    @staticmethod
    def const(c):
        c = (c.re, c.im) if type(c) is GaussRat else (_int_or_fraction(c), 0)
        return Poly({0: c} if c != (0, 0) else {})

    @staticmethod
    def var(name):
        return Poly({1 << _shift(name): (1, 0)})

    @staticmethod
    def exp_atom(arg):
        return Poly({(0, arg) if arg.terms else 0: (1, 0)})

    # structure ------------------------------------------------------------

    def key(self):
        if self._key is None:
            self._key = tuple(sorted((_mono_key(m), c) for m, c in self.terms.items()))
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __eq__(self, other):
        return isinstance(other, Poly) and self.key() == other.key()

    def __lt__(self, other):
        return self.key() < other.key()

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def free_names(self):
        out = set()
        for mono in self.terms:
            arg, powers = _split(mono)
            if arg is not None:
                out |= arg.free_names()
            out.update(name for name, _ in powers)
        return out

    # arithmetic -----------------------------------------------------------

    def add(self, other, sign=1):
        """self + sign * other, sign 1 or -1."""
        acc = dict(self.terms)
        _add_scaled(acc, other.terms.items(), sign, 0)
        return Poly(acc)

    def sub(self, other):
        return self.add(other, -1)

    def neg(self):
        return Poly({m: (-r, -i) for m, (r, i) in self.terms.items()})

    def scalar_mul(self, c):
        """c times the polynomial, c a scalar or an (re, im) pair; 1 returns
        the operand itself."""
        c, acc = c if type(c) is tuple else GaussRat.of(c).key(), {}
        if c == (1, 0):
            return self
        if c != (0, 0):
            _add_scaled(acc, self.terms.items(), *c)
        return Poly(acc)

    def mul(self, other):
        _check_product(self, other)
        # a constant factor scales the terms of the other, in their order
        if len(other.terms) == 1 and 0 in other.terms:
            return self.scalar_mul(other.terms[0])
        if len(self.terms) == 1 and 0 in self.terms:
            return other.scalar_mul(self.terms[0])
        acc = {}
        _mac(acc, self.terms, other.terms)
        return Poly(acc)

    def pow(self, n):
        if n < 0:
            raise ExprError("negative power at polynomial level")
        # past 2^31 - 1 a variable overflows its field, and any power but
        # that of c*exp(A), c in {1, -1, i, -i}, grows without bound; a
        # one-term power's coefficient is (p1 q2 + i p2 q1)^n / (q1 q2)^n, and
        # a t-term power's sum up to t^n such products, log2 t more bits each
        if n > 1 and self.terms:
            (mono, (r, i)), *rest = self.terms.items()
            grows = rest or r * i or abs(r + i) != 1
            if n > _MAX_POWER and (grows or _split(mono)[1]):
                raise ExprError("power %d exceeds 2^31 - 1" % n)
            bits, log_t = _bits(self), len(rest).bit_length()
            width = 2 * bits + 1 if any(r and i for r, i in self.terms.values()) else bits
            if grows and n * (width + log_t) > BIT_BUDGET:
                raise ExprError("power %d of a %s%d-bit coefficient%s may pass %d bits"
                                % (n, "%d-term polynomial with " % len(self.terms) if rest
                                   else "", bits, "s" if rest else "", BIT_BUDGET))
        # C(n + k, k), k < t: a t-term power n has at most C(n + t - 1, t - 1)
        # terms, each with an exp argument of at most the terms of all the
        # base's arguments together
        bound = 1
        args = sum(_arg_sizes(self)) if n > 1 else 0
        for k in range(1, len(self.terms) if n > 1 else 1):
            if (bound := bound * (n + k) // k) * (1 + args) > TERM_BUDGET:
                raise ExprError("power %d of a %d-term polynomial%s may have more than %d terms"
                                % (n, len(self.terms), " with %d terms in exp arguments" % args
                                   if args else "", TERM_BUDGET))
        if n == 0:
            return Poly.const(1)
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
        if len(self.terms) != 1 or _split(next(iter(self.terms)))[1]:
            return None
        (mono, c), = self.terms.items()
        return Poly({mono if type(mono) is int else (0, mono[1].neg()): _pair_inv(c)})

    # calculus -------------------------------------------------------------

    def diff(self, name):
        shift = _SHIFTS.get(name)
        acc = {}
        for mono, c in self.terms.items():
            v, arg = (mono, None) if type(mono) is int else mono
            if arg is not None:
                _add_scaled(acc, arg.diff(name).mul(Poly({mono: c})).terms.items(), 1, 0)
            p = 0 if shift is None else (v >> shift) & _FIELD
            if p:
                v -= 1 << shift
                _add_scaled(acc, ((v if arg is None else (v, arg), c),), p, 0)
        return Poly(acc)

    def subs(self, mapping, images):
        """Substitute variables by Polys; mapping: name -> Poly.  ``images``
        holds monomial images under this mapping and gains the new ones."""
        acc = {}
        powers = {}
        for mono, c in self.terms.items():
            image = images.get(mono)
            if image is None:
                arg, gens = _split(mono)
                image = Poly.const(1) if arg is None else Poly.exp_atom(
                    arg.subs(mapping, images))
                for name, p in gens:
                    if (name, p) not in powers:
                        rep = mapping.get(name)
                        powers[name, p] = (rep if rep is not None else Poly.var(name)).pow(p)
                    # a product has at most the product of the two term counts,
                    # each term with an exp argument of at most the widest
                    # arguments of the two factors together
                    power = powers[name, p]
                    args = max(_arg_sizes(image), default=0) + max(_arg_sizes(power), default=0)
                    if (size := len(image.terms) * len(power.terms) * (1 + args)) > TERM_BUDGET:
                        raise ExprError("the image of a monomial may have %d terms, more than %d"
                                        % (size, TERM_BUDGET))
                    image = image.mul(power)
                images[mono] = image
            _add_scaled(acc, image.terms.items(), *c)
        return Poly(acc)

    def eval(self, values):
        """Evaluate at a point; values: name -> complex/int/Fraction/GaussRat.

        Rational arithmetic is kept exact and only converted to floating
        point where an exponential forces it (or at the final boundary).
        """
        exact_sum = GaussRat()
        float_sum = 0j
        for mono, c in self.terms.items():
            exact = GaussRat(*c)
            approx = 1 + 0j
            is_exact = True
            arg, gens = _split(mono)
            if arg is not None:
                approx *= cmath.exp(arg.eval(values))
                is_exact = False
            for name, p in gens:
                if name not in values:
                    raise ExprError("no value for variable %s" % name)
                v = values[name]
                if isinstance(v, (int, Fraction, GaussRat)):
                    for _ in range(p):
                        exact = exact * GaussRat.of(v)
                else:
                    approx *= complex(v) ** p
                    is_exact = False
            if is_exact:
                exact_sum = exact_sum + exact
            else:
                float_sum += exact.to_complex() * approx
        return exact_sum.to_complex() + float_sum

    def fold(self, zero, const, var, exp):
        """Evaluate in another algebra, term by term and left to right: the sum
        onto ``zero`` of const(c) * exp(folded argument) * var(v)**p * ..."""
        total = zero
        for mono, c in self.terms.items():
            term = const(GaussRat(*c))
            arg, gens = _split(mono)
            if arg is not None:
                term = term * exp(arg.fold(zero, const, var, exp))
            for name, p in gens:
                term = term * var(name) ** p
            total = total + term
        return total

    # rendering ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items(), key=lambda t: _mono_sort_key(t[0])):
            arg, gens = _split(mono)
            factors = [] if arg is None else ["exp(%s)" % arg]
            factors += [name if p == 1 else "%s^%d" % (name, p) for name, p in gens]
            body = "*".join(factors)
            ctxt = _gauss_str(c)
            if not body:
                piece = "(%s)" % ctxt if (" " in ctxt) else ctxt
            elif c == (1, 0):
                piece = body
            elif c == (-1, 0):
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


def _mono_key(mono):
    """The generators in walk order, comparable across monomials: (0, exp
    argument), then (1, name, power) for each variable."""
    arg, gens = _split(mono)
    return (() if arg is None else ((0, arg),)) + tuple((1, n, p) for n, p in gens)


def _mono_sort_key(mono):
    # total degree first (an exp atom counts 1), then the generators
    key = _mono_key(mono)
    return (sum(g[2] if g[0] else 1 for g in key), key)


# ---------------------------------------------------------------------------
# Expressions: canonical polynomials plus an opaque quotient fallback


def _coerced(op):
    """The binary operator ``op`` with its other operand made an Expr; an
    operand ``as_expr`` rejects gets NotImplemented, so Python tries its
    reflected method."""
    def apply(self, other):
        try:
            other = as_expr(other)
        except TypeError:
            return NotImplemented
        return op(self, other)
    return apply


class Expr:
    """Immutable expression; canonical where possible (see module docstring)."""

    __slots__ = ("poly", "node")

    def __init__(self, poly=None, node=None):
        self.poly = poly
        self.node = node

    # constructors ----------------------------------------------------------

    @staticmethod
    def zero():
        return Expr(poly=Poly.zero())

    @staticmethod
    def one():
        return Expr(poly=Poly.const(1))

    @staticmethod
    def integer(n):
        return Expr(poly=Poly.const(n))

    @staticmethod
    def rational(num, den=1):
        return Expr(poly=Poly.const(Fraction(num, den)))

    @staticmethod
    def gauss(re, im=0):
        return Expr(poly=Poly.const(GaussRat(re, im)))

    @staticmethod
    def imag_unit():
        return Expr(poly=Poly({0: (0, 1)}))

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
        i_e = as_expr(e) * Expr.imag_unit()
        return (Expr.exp(i_e) - Expr.exp(-i_e)) * Expr.gauss(0, Fraction(-1, 2))

    @staticmethod
    def cos(e):
        i_e = as_expr(e) * Expr.imag_unit()
        return (Expr.exp(i_e) + Expr.exp(-i_e)) * Expr.rational(1, 2)

    # predicates ------------------------------------------------------------

    @property
    def is_canonical(self):
        return self.poly is not None

    def is_const(self):
        return self.poly is not None and self.poly.is_const()

    def is_exact_zero(self):
        """True for the zero polynomial; never for a tree, which only ``is_zero`` decides."""
        return self.poly is not None and self.poly.is_zero()

    def const_pair(self):
        """The constant's (re, im) pair, built into no GaussRat."""
        if not self.is_const():
            raise ExprError("not a constant")
        return self.poly.terms.get(0, (0, 0))

    def const_value(self):
        return GaussRat(*self.const_pair())

    def free_names(self):
        if self.poly is not None:
            return self.poly.free_names()
        out = set()
        for child in self.node[1:]:
            if isinstance(child, Expr):
                out |= child.free_names()
        return out

    # arithmetic ------------------------------------------------------------

    @_coerced
    def __add__(self, other):
        if self.poly is not None and other.poly is not None:
            return Expr(poly=self.poly.add(other.poly))
        return Expr(node=("add", self, other))

    __radd__ = __add__

    def __neg__(self):
        if self.poly is not None:
            return Expr(poly=self.poly.neg())
        return Expr(node=("neg", self))

    @_coerced
    def __sub__(self, other):
        if self.poly is not None and other.poly is not None:
            return Expr(poly=self.poly.sub(other.poly))
        return self + (-other)

    @_coerced
    def __rsub__(self, other):
        return other + (-self)

    @_coerced
    def __mul__(self, other):
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
            if n > _MAX_POWER:
                raise ExprError("power %d exceeds 2^31 - 1" % n)
            return Expr(node=("pow", self, n))
        return Expr.one() / (self ** (-n))

    @_coerced
    def __truediv__(self, other):
        if other.is_exact_zero():
            raise ZeroDivisionError("division by symbolic zero")
        if self.poly is not None and other.poly is not None:
            inv = other.poly.invert_monomial()
            if inv is not None:
                return Expr(poly=self.poly.mul(inv))
        return Expr(node=("quot", self, other))

    @_coerced
    def __rtruediv__(self, other):
        return other / self

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
            if name not in b.free_names():
                # a constant denominator stays as it is: squaring it on every
                # derivative would double its size each time
                return a.diff(name) / b
            # b = base^k: (a/base^k)' = (a' base - k a base') / base^(k+1), so
            # the denominator grows by one factor per derivative, not doubles
            base, k = b, 1
            if b.node is not None and b.node[0] == "pow":
                base, k = b.node[1], b.node[2]
            num = a.diff(name) * base - Expr.integer(k) * a * base.diff(name)
            return Expr(node=("quot", num, Expr(node=("pow", base, k + 1))))
        if kind == "pow":
            a, n = self.node[1], self.node[2]
            return Expr.integer(n) * a ** (n - 1) * a.diff(name)
        if kind == "exp":
            return self.node[1].diff(name) * self
        raise ExprError("cannot differentiate node %r" % kind)

    def substitute(self, mapping):
        """Replace variables; mapping: name -> Expr (or int/Fraction)."""
        return substitution(mapping)(self)

    def eval(self, values):
        """Complex value at a point; a vanishing denominator raises ZeroDivisionError."""
        return self.fold(lambda poly: poly.eval(values), cmath)

    def fold(self, leaf, funcs):
        """Evaluate bottom-up: ``leaf(poly)`` on each canonical part; tree nodes
        apply ``_TREE_OPS`` to their children's values and take exp from
        ``funcs`` (``cmath``, ``numpy`` or ``Expr`` itself)."""
        if self.poly is not None:
            return leaf(self.poly)
        kind = self.node[0]
        args = [a.fold(leaf, funcs) if isinstance(a, Expr) else a for a in self.node[1:]]
        op = _TREE_OPS.get(kind)
        return op(*args) if op is not None else getattr(funcs, kind)(*args)

    # comparison ------------------------------------------------------------

    @_coerced
    def __eq__(self, other):
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
    if isinstance(v, (int, Fraction, GaussRat)):
        return Expr(poly=Poly.const(v))
    raise TypeError("cannot coerce %r to Expr" % (v,))


class Accumulator:
    """start + a_1*b_1 + a_2*b_2 + ... for one coefficient, b an Expr, 1, -1
    or an (re, im) pair.

    While the terms are canonical, their products go through ``_mac`` into
    one dict monomial -> (re, im), which ``expr`` hands over as the Poly; a
    lone term times 1 is handed back as it is.  What was handed out stays
    as ``lone``, and a later term copies its dict first.  From the first
    tree term on, the sum goes on in Expr arithmetic, term by term, so it
    has the tree shape and certificate that ``+`` and ``-`` build.  Without
    a start the first term stands alone; with ``drop`` a canonical sum that
    has reached zero counts as none, as a symbol drops it.
    """

    __slots__ = ("acc", "lone", "tree", "empty", "drop")

    def __init__(self, start=None, drop=False):
        self.acc, self.lone, self.tree, self.empty, self.drop = {}, None, None, True, drop
        if start is not None:
            self.add(start)

    def add(self, a, b=1):
        """The sum plus a*b, b an Expr, 1, -1 or an (re, im) pair; True while canonical."""
        terms = None if a.poly is None else a.poly.terms
        pair = b if type(b) is tuple else (b, 0) if type(b) is int else None
        if self.tree is None and terms is not None and (pair is not None or b.poly is not None):
            self.empty = False
            c = pair
            if c is None:   # a constant b scales the terms of a
                _check_product(a.poly, b.poly)
                c = b.poly.terms.get(0) if len(b.poly.terms) == 1 else None
            if not terms:
                return True
            if self.lone is not None:
                self.acc, self.lone = dict(self.lone.poly.terms), None
            elif c == (1, 0) and not self.acc:
                self.lone = a
                return True
            if c is None:
                _mac(self.acc, terms, b.poly.terms)
            else:
                _add_scaled(self.acc, terms.items(), *c)
            return True
        term = (a * b if pair is None else a if pair == (1, 0) else -a if pair == (-1, 0)
                else a * Expr.gauss(*pair))
        if self.tree is None:
            s = self.expr()
            self.tree = term if self.empty or self.drop and s is _ZERO else s + term
        else:
            self.tree = self.tree + term
        return False

    def expr(self):
        if self.tree is not None:
            return self.tree
        if self.acc:
            self.lone, self.acc = Expr(poly=Poly(self.acc)), {}
        return _ZERO if self.lone is None else self.lone   # None: a zero sum


_ZERO = Expr.zero()


def substitution(mapping):
    """The map e -> e o mapping, for mapping: name -> Expr (or int/Fraction).

    A canonical mapping keeps the image of each monomial it meets for every
    later call; a tree value rebuilds each canonical part by tree arithmetic.
    """
    mapping = {k: as_expr(v) for k, v in mapping.items()}
    if any(v.poly is None for v in mapping.values()):
        def var(name):
            return mapping.get(name, Expr.var(name))
        return lambda e: as_expr(e).fold(
            lambda poly: poly.fold(Expr.zero(), as_expr, var, Expr.exp), Expr)
    polys = {k: v.poly for k, v in mapping.items()}
    images = {}

    def apply(e):   # a canonical e is its own one leaf: no fold to dispatch
        return Expr(poly=e.poly.subs(polys, images)) if type(e) is Expr and e.poly is not None \
            else as_expr(e).fold(lambda poly: Expr(poly=poly.subs(polys, images)), Expr)
    return apply


# tree node kind -> operator on the children's values; exp comes from the
# ``funcs`` argument of ``Expr.fold``
_TREE_OPS = {"add": operator.add, "neg": operator.neg, "mul": operator.mul,
             "quot": operator.truediv, "pow": operator.pow}


# ---------------------------------------------------------------------------
# Zero testing


# kind is "exact" or "probabilistic"
ZeroCheck = namedtuple("ZeroCheck", "ok kind detail", defaults=("",))


def all_zero(checks):
    """One certificate for several zero checks.

    It passes iff every check passes, and it is exact iff every check is
    exact (an empty input passes exactly).  Every check is consumed, so the
    rng draws of later checks never depend on an earlier failure.
    """
    checks = list(checks)
    exact = all(c.kind == "exact" for c in checks)
    return ZeroCheck(all(c.ok for c in checks), "exact" if exact else "probabilistic")


class _Sized:
    """A sampled value with the size of the terms it was computed from.

    Canonical parts evaluate exactly up to their exp atoms; the floating
    point error of tree arithmetic on them is relative to the sizes of its
    summands, not to the value, so ``size`` bounds that scale.  The class
    serves ``Expr.fold`` as its ``funcs`` too.
    """

    __slots__ = ("value", "size")

    def __init__(self, value, size):
        self.value = value
        self.size = size

    @staticmethod
    def leaf(value):
        return _Sized(value, abs(value))

    def __add__(self, other):
        return _Sized(self.value + other.value, self.size + other.size)

    def __neg__(self):
        return _Sized(-self.value, self.size)

    def __mul__(self, other):
        return _Sized(self.value * other.value, self.size * other.size)

    def __truediv__(self, other):
        q = self.value / other.value
        return _Sized(q, (self.size + abs(q) * other.size) / abs(other.value))

    def __pow__(self, n):
        return _Sized(self.value ** n, self.size ** n)

    # an argument off by eps*size moves f by |f'| eps*size
    @staticmethod
    def exp(a):
        v = cmath.exp(a.value)
        return _Sized(v, abs(v) * (1 + a.size))


def is_zero(e, rng=None):
    """Zero test with certificate.

    Canonical expressions are decided exactly.  Expressions outside the
    canonical class (quotient trees) are sampled at 20 random rational
    points and pass when every |value| is at most 1e-9 times the size of
    the terms it sums at that point (``_Sized``), so large terms that cancel
    pass and a small nonzero function fails; a nonzero function passes all
    samples only with negligible probability, and the certificate is marked
    probabilistic.  Draws that hit a pole, or overflow an exp, are redrawn,
    up to 200 draws in all; if too few points could be evaluated the test is
    undecided and reports not-zero.
    """
    points, tol = 20, 1e-9
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
            sample = e.fold(lambda poly: _Sized.leaf(poly.eval(values)), _Sized)
        except (ZeroDivisionError, OverflowError):
            continue
        tried += 1
        v = sample.value
        worst = max(worst, abs(v))
        if abs(v) > tol * sample.size:
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
            if not name[:1].isalpha() or any(not (ch.isalnum() or ch == "_") for ch in name):
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
                factor = self._factor()
                try:
                    e = e * factor
                except ExprError as exc:
                    raise ParseError(str(exc), pos, self.text) from None
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
            except ExprError as exc:
                raise ParseError(str(exc), pos, self.text) from None

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
