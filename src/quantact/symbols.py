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
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import Expr, ExprError, as_expr, is_zero, parse


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


def default_xi_names(dim):
    return ["xi%d" % (k + 1) for k in range(dim)]


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
                if c.is_canonical and c.poly.is_zero():
                    continue
                data[alpha] = c
        self.coeffs = data

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

    def add(self, other):
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out[a] + c if a in out else c
        return PolyXi(self.dim, out)

    def neg(self):
        return PolyXi(self.dim, {a: -c for a, c in self.coeffs.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, e):
        e = as_expr(e)
        return PolyXi(self.dim, {a: c * e for a, c in self.coeffs.items()})

    def to_expr(self, xi_names):
        out = Expr.zero()
        for alpha, c in self.coeffs.items():
            term = c
            for name, p in zip(xi_names, alpha):
                if p:
                    term = term * Expr.var(name) ** p
            out = out + term
        return out

    def __eq__(self, other):
        return (isinstance(other, PolyXi) and self.dim == other.dim
                and self.sub(other).is_zero())

    def __repr__(self):
        return "PolyXi(%d, %r)" % (self.dim, {a: str(c) for a, c in self.coeffs.items()})


class FormalSymbol:
    """Truncated expansion (P^0, ..., P^N) of frequency polynomials."""

    __slots__ = ("dim", "order", "comps")

    def __init__(self, dim, order, comps=None):
        self.dim = dim
        self.order = order
        if comps is None:
            comps = [PolyXi.zero(dim) for _ in range(order + 1)]
        comps = list(comps)
        if len(comps) != order + 1:
            raise ValueError("expected %d components" % (order + 1))
        for n, comp in enumerate(comps):
            if comp.dim != dim:
                raise ValueError("component dimension mismatch")
            if comp.xi_degree() > n:
                raise ValueError(
                    "order-%d component has frequency degree %d > %d"
                    % (n, comp.xi_degree(), n))
        self.comps = comps

    @staticmethod
    def zero(dim, order):
        return FormalSymbol(dim, order)

    @staticmethod
    def one(dim, order):
        comps = [PolyXi.zero(dim) for _ in range(order + 1)]
        comps[0] = PolyXi.constant(dim, Expr.one())
        return FormalSymbol(dim, order, comps)

    @staticmethod
    def from_scalar(dim, order, e):
        """Frequency-independent order-0 symbol with value e."""
        comps = [PolyXi.zero(dim) for _ in range(order + 1)]
        comps[0] = PolyXi.constant(dim, as_expr(e))
        return FormalSymbol(dim, order, comps)

    def add(self, other):
        self._check_compatible(other)
        return FormalSymbol(self.dim, self.order,
                            [a.add(b) for a, b in zip(self.comps, other.comps)])

    def sub(self, other):
        self._check_compatible(other)
        return FormalSymbol(self.dim, self.order,
                            [a.sub(b) for a, b in zip(self.comps, other.comps)])

    def neg(self):
        return FormalSymbol(self.dim, self.order, [c.neg() for c in self.comps])

    def scale(self, e):
        return FormalSymbol(self.dim, self.order, [c.scale(e) for c in self.comps])

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
        rows = []
        for n, comp in enumerate(self.comps):
            for alpha, c in sorted(comp.coeffs.items()):
                rows.append("%d %s %s" % (n, alpha, c))
        return "FormalSymbol(dim=%d, order=%d)[%s]" % (self.dim, self.order, "; ".join(rows))


# ---------------------------------------------------------------------------
# serialization

def dump_symbol(sym):
    """Serialize as text lines: header plus (n, alpha, coefficient) triples."""
    lines = ["symbol order=%d dim=%d" % (sym.order, sym.dim)]
    for n, comp in enumerate(sym.comps):
        for alpha, c in sorted(comp.coeffs.items()):
            lines.append("%d (%s) %s" % (n, ",".join(str(a) for a in alpha), c))
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


def taylor_from_amplitude(amp, order, convention="multi"):
    """Taylor-expand an amplitude series at xi = 0 into a FormalSymbol.

    The 'multi' convention weights the alpha term by 1/alpha!; 'total'
    weights by 1/|alpha|! instead, for cross-checks of the normalization.
    """
    dim = amp.dim
    zero_point = {name: Expr.zero() for name in amp.xi_names}
    comps = []
    for n in range(order + 1):
        coeffs = {}
        for alpha in multi_indices(dim, n):
            a_term = amp.term(n - sum(alpha))
            if a_term.is_canonical and a_term.poly.is_zero():
                continue
            deriv = a_term
            for name, k in zip(amp.xi_names, alpha):
                for _ in range(k):
                    deriv = deriv.diff(name)
            at_zero = deriv.substitute(zero_point)
            if at_zero.is_canonical and at_zero.poly.is_zero():
                continue
            coeffs[alpha] = at_zero * _factorial_weight(alpha, convention)
        comps.append(PolyXi(dim, coeffs))
    return FormalSymbol(dim, order, comps)


def xi_decompose(e, xi_names, max_degree=12):
    """Write e as a frequency polynomial: dict alpha -> coefficient Expr.

    Works by exact Taylor extraction at xi = 0 and verifies the
    reconstruction; raises ExprError when e is not polynomial in the
    frequency variables up to max_degree.
    """
    e = as_expr(e)
    dim = len(xi_names)
    zero_point = {name: Expr.zero() for name in xi_names}
    out = {}
    recon = Expr.zero()
    for alpha in multi_indices(dim, max_degree):
        deriv = e
        for name, k in zip(xi_names, alpha):
            for _ in range(k):
                deriv = deriv.diff(name)
        coeff = deriv.substitute(zero_point) * _factorial_weight(alpha, "multi")
        if coeff.is_canonical and coeff.poly.is_zero():
            continue
        out[alpha] = coeff
        term = coeff
        for name, p in zip(xi_names, alpha):
            if p:
                term = term * Expr.var(name) ** p
        recon = recon + term
    if not is_zero(e - recon).ok:
        raise ExprError("expression is not polynomial of degree <= %d in %s"
                        % (max_degree, ",".join(xi_names)))
    return out
