"""Truncated semiclassical symbols with polynomial frequency dependence.

A symbol of truncation order N is a family P = (P^0, ..., P^N) where the
order-n component is a polynomial of degree at most n in the frequency
variables xi_1..xi_d whose coefficients are expressions in the base
coordinates; the order-0 component is frequency independent.  P stands for
the expansion P^0 + h*P^1 + ... + h^N*P^N in the semiclassical parameter.

``taylor_from_amplitude`` maps a smooth amplitude expansion a^0 + h*a^1 + ...
into this space by Taylor expanding each a^k at xi = 0,

    P^n(x, xi) = sum_{|alpha| <= n} c_alpha *
                 (d/dxi)^alpha a^{n-|alpha|}(x, 0) * xi^alpha,

with c_alpha = 1/alpha! (the per-component factorial).  The alternative
normalization c_alpha = 1/|alpha|! is selectable for numerical cross-checks;
the two agree in one dimension and differ for mixed multi-indices.

``symbol_sum`` forms every sum of symbols, ``add``, ``sub``, ``neg`` and
``scale`` included, with one ``expr.Accumulator`` per coefficient (n, alpha).
An empty slot is skipped, and may be one shared empty PolyXi.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import Accumulator, Expr, ExprError, as_expr, is_zero, parse, substitution


def multi_indices(dim, max_total):
    """All d-tuples of nonnegative integers with total degree <= max_total."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], max_total, dim)
    out.sort(key=lambda a: (sum(a), a))
    return out


def lower_last(alpha):
    """(j, alpha - e_j) for the last nonzero index j of alpha, None for 0: the
    derivative d^alpha taken in index order is d_j after d^(alpha - e_j)."""
    for j in range(len(alpha) - 1, -1, -1):
        if alpha[j]:
            return j, alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
    return None


def default_xi_names(dim):
    return ["xi%d" % (k + 1) for k in range(dim)]


def monomial(names, alpha):
    """The monomial prod_i names[i]^alpha[i] as an Expr."""
    out = Expr.one()
    for name, p in zip(names, alpha):
        if p:
            out = out * Expr.var(name) ** p
    return out


class PolyXi:
    """Polynomial in the frequency variables with Expr coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim, coeffs=None):
        self.dim = dim
        data = {}
        if coeffs:
            for alpha, c in coeffs.items():
                alpha = tuple(alpha)
                if len(alpha) != dim:
                    raise ValueError("multi-index length mismatch")
                c = as_expr(c)
                if c.is_exact_zero():
                    continue
                data[alpha] = c
        self.coeffs = data

    @staticmethod
    def unchecked(dim, coeffs):
        """PolyXi over a dict of valid multi-indices to Exprs, without the
        constructor's checks; only the exact zeros are dropped."""
        out = PolyXi.__new__(PolyXi)
        out.dim = dim
        out.coeffs = {a: c for a, c in coeffs.items() if not c.is_exact_zero()}
        return out

    @staticmethod
    def zero(dim):
        return PolyXi(dim)

    @staticmethod
    def constant(dim, e):
        return PolyXi(dim, {tuple([0] * dim): as_expr(e)})

    def xi_degree(self):
        return max((sum(a) for a in self.coeffs), default=0)

    def is_zero(self):
        return all(is_zero(c).ok for c in self.coeffs.values())

    def coefficient(self, alpha):
        return self.coeffs.get(tuple(alpha), Expr.zero())

    def to_expr(self, xi_names):
        out = Expr.zero()
        for alpha, c in self.coeffs.items():
            out = out + c * monomial(xi_names, alpha)
        return out

    def __repr__(self):
        return "PolyXi(%d, %r)" % (self.dim, {a: str(c) for a, c in self.coeffs.items()})


class FormalSymbol:
    """Truncated expansion (P^0, ..., P^N) of frequency polynomials."""

    __slots__ = ("dim", "order", "comps")

    def __init__(self, dim, order, comps=None):
        self.dim = dim
        self.order = order
        if comps is None:
            comps = [PolyXi.zero(dim)] * (order + 1)   # one shared empty slot
        comps = list(comps)
        if len(comps) != order + 1:
            raise ValueError("expected %d components" % (order + 1))
        for n, comp in enumerate(comps):
            if comp.dim != dim:
                raise ValueError("component dimension mismatch")
            if comp.coeffs and comp.xi_degree() > n:   # an empty slot passes
                raise ValueError(
                    "order-%d component has frequency degree %d > %d"
                    % (n, comp.xi_degree(), n))
        self.comps = comps

    @staticmethod
    def unchecked(dim, order, comps):
        """FormalSymbol over a list of valid components, without the checks."""
        out = FormalSymbol.__new__(FormalSymbol)
        out.dim, out.order, out.comps = dim, order, comps
        return out

    @staticmethod
    def zero(dim, order):
        return FormalSymbol(dim, order)

    @staticmethod
    def one(dim, order):
        comps = [PolyXi.zero(dim)] * (order + 1)
        comps[0] = PolyXi.constant(dim, Expr.one())
        return FormalSymbol(dim, order, comps)

    @staticmethod
    def from_scalar(dim, order, e):
        """Frequency-independent order-0 symbol with value e."""
        comps = [PolyXi.zero(dim)] * (order + 1)
        comps[0] = PolyXi.constant(dim, as_expr(e))
        return FormalSymbol(dim, order, comps)

    def add(self, other):
        self._check_compatible(other)
        return symbol_sum(self.dim, self.order, [(self, 1), (other, 1)])

    def sub(self, other):
        self._check_compatible(other)
        return symbol_sum(self.dim, self.order, [(self, 1), (other, -1)])

    def neg(self):
        return symbol_sum(self.dim, self.order, [(self, -1)])

    def scale(self, e):
        return symbol_sum(self.dim, self.order, [(self, as_expr(e))])

    # the operators call the named methods, so wrapping a method wraps its operator
    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __mul__(self, e):
        """Scalar multiple by an Expr or number."""
        return self.scale(e)

    __rmul__ = __mul__

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def _check_compatible(self, other):
        if self.dim != other.dim or self.order != other.order:
            raise ValueError("incompatible symbols (dim/order)")

    def __eq__(self, other):
        if not isinstance(other, FormalSymbol):
            return NotImplemented
        if self.dim != other.dim or self.order != other.order:
            return False
        return self.sub(other).is_zero()

    def __repr__(self):
        rows = ["%d %s %s" % (n, alpha, c) for n, comp in enumerate(self.comps)
                for alpha, c in sorted(comp.coeffs.items())]
        return "FormalSymbol(dim=%d, order=%d)[%s]" % (self.dim, self.order, "; ".join(rows))


def symbol_sum(dim, order, pairs, strict=False):
    """The sum of s*v over (symbol v, s) pairs, s 1, -1 or an Expr, as it
    sums from zero: one Accumulator per output coefficient (n, alpha), and a
    coefficient that cancels is dropped.  With ``strict``, None at the first
    tree term instead."""
    empty = PolyXi.unchecked(dim, {})
    comps = []
    for n in range(order + 1):
        sums = {}
        for v, s in pairs:
            for alpha, c in v.comps[n].coeffs.items():
                acc = sums.get(alpha) or sums.setdefault(alpha, Accumulator(drop=True))
                if not acc.add(c, s) and strict:
                    return None
        comps.append(PolyXi.unchecked(dim, {a: acc.expr() for a, acc in sums.items()})
                     if sums else empty)
    return FormalSymbol.unchecked(dim, order, comps)


# ---------------------------------------------------------------------------
# serialization

def dump_symbol(sym):
    """Serialize as text lines: header plus (n, alpha, coefficient) triples."""
    lines = ["symbol order=%d dim=%d" % (sym.order, sym.dim)]
    lines += ["%d (%s) %s" % (n, ",".join(str(a) for a in alpha), c)
              for n, comp in enumerate(sym.comps) for alpha, c in sorted(comp.coeffs.items())]
    return "\n".join(lines) + "\n"


def load_symbol(text, binding=None):
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if not head or head[0] != "symbol":
        raise ValueError("expected 'symbol order=N dim=d' header")
    fields = dict(part.split("=") for part in head[1:])
    order, dim = int(fields["order"]), int(fields["dim"])
    comps = [dict() for _ in range(order + 1)]
    for ln in lines[1:]:
        npart, rest = ln.split(None, 1)
        if not rest.startswith("("):
            raise ValueError("expected multi-index in parentheses: %r" % ln)
        close = rest.index(")")
        alpha = tuple(int(tok) for tok in rest[1:close].split(",")) if close > 1 else ()
        coeff = parse(rest[close + 1:].strip(), binding)
        n = int(npart)
        comps[n][alpha] = comps[n].get(alpha, Expr.zero()) + coeff
    return FormalSymbol(dim, order, [PolyXi(dim, c) for c in comps])


# ---------------------------------------------------------------------------
# amplitudes and the Taylor map


class AmplitudeSeries:
    """Expansion a^0 + h*a^1 + ... with smooth coefficients in (x, xi)."""

    def __init__(self, dim, terms, xi_names=None):
        self.dim = dim
        self.terms = [as_expr(t) for t in terms]
        self.xi_names = list(xi_names) if xi_names is not None else default_xi_names(dim)
        if len(self.xi_names) != dim:
            raise ValueError("need one frequency name per dimension")

    @property
    def order(self):
        return len(self.terms) - 1

    def term(self, k):
        return self.terms[k] if 0 <= k < len(self.terms) else Expr.zero()


def _factorial_weight(alpha, convention):
    if convention == "multi":
        den = 1
        for a in alpha:
            den *= math.factorial(a)
    elif convention == "total":
        den = math.factorial(sum(alpha))
    else:
        raise ValueError("convention must be 'multi' or 'total'")
    return Fraction(1, den)


def _xi_derivatives(e, xi_names, max_degree):
    """(alpha, d_xi^alpha e) for |alpha| <= max_degree, by total degree.

    Each derivative is one more derivative of one already taken
    (``lower_last``), in the same sequence as differentiating e in name order.
    """
    derivs = {}
    for alpha in multi_indices(len(xi_names), max_degree):
        step = lower_last(alpha)
        deriv = e if step is None else derivs[step[1]].diff(xi_names[step[0]])
        derivs[alpha] = deriv
        yield alpha, deriv


def taylor_from_amplitude(amp, order, convention="multi"):
    """Taylor-expand an amplitude series at xi = 0 into a FormalSymbol.

    The 'multi' convention weights the alpha term by 1/alpha!; 'total'
    weights by 1/|alpha|! instead, for cross-checks of the normalization.
    """
    dim = amp.dim
    at_xi_zero = substitution({name: Expr.zero() for name in amp.xi_names})
    # by_degree[m]: the multi-indices of total degree m, in multi_indices order
    by_degree = [[] for _ in range(order + 1)]
    for alpha in multi_indices(dim, order):
        by_degree[sum(alpha)].append(alpha)
    # derivs[k][alpha] = d_xi^alpha a^k, which lands in slot k + |alpha|; an
    # exact-zero term, such as one past the end of the series, adds nothing
    derivs = {k: dict(_xi_derivatives(amp.term(k), amp.xi_names, order - k))
              for k in range(min(order, amp.order) + 1)
              if not amp.term(k).is_exact_zero()}
    comps = []
    for n in range(order + 1):
        coeffs = {}
        # slot n takes |alpha| = n - k in ascending order, so k descending
        for k in reversed([k for k in derivs if k <= n]):
            for alpha in by_degree[n - k]:
                at_zero = at_xi_zero(derivs[k][alpha])
                if not at_zero.is_exact_zero():
                    coeffs[alpha] = at_zero * _factorial_weight(alpha, convention)
        comps.append(PolyXi(dim, coeffs))
    return FormalSymbol(dim, order, comps)


def xi_decompose(e, xi_names):
    """Write e as a frequency polynomial: dict alpha -> coefficient Expr.

    Works by exact Taylor extraction at xi = 0 and verifies the
    reconstruction; raises ExprError when e is not polynomial in the
    frequency variables up to degree 12.
    """
    max_degree = 12
    e = as_expr(e)
    at_xi_zero = substitution({name: Expr.zero() for name in xi_names})
    out = {}
    recon = Expr.zero()
    for alpha, deriv in _xi_derivatives(e, xi_names, max_degree):
        coeff = at_xi_zero(deriv) * _factorial_weight(alpha, "multi")
        if coeff.is_exact_zero():
            continue
        out[alpha] = coeff
        recon = recon + coeff * monomial(xi_names, alpha)
    if not is_zero(e - recon).ok:
        raise ExprError("expression is not polynomial of degree <= %d in %s"
                        % (max_degree, ",".join(xi_names)))
    return out
