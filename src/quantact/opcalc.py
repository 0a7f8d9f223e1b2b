"""Operator calculus for truncated symbols twisted by diffeomorphisms.

A symbol P = (P^0, ..., P^N) with P^n(x, xi) = sum_alpha f_{n,alpha}(x) xi^alpha
and a diffeomorphism phi quantize to the formal operator

    (T psi)(x) = sum_n h^n sum_alpha f_{n,alpha}(x) * (D^alpha psi)(phi^{-1}(x)),

with D^alpha = (1/i)^{|alpha|} d^alpha.  Note the coefficient is evaluated at
the output point x while the derivative of psi is taken at phi^{-1}(x).

Composing two such operators rewrites derivatives through the inner pullback
by the Leibniz and chain rules,

    D_j [ g * (D^beta psi) o phi2^{-1} ] =
        (D_j g) * (D^beta psi) o phi2^{-1}
        + g * sum_k d_j (phi2^{-1})_k * (D^{beta+e_k} psi) o phi2^{-1},

which keeps the normal form and shows the composite lives over phi1 o phi2.
Reading off the coefficients defines the product ``star`` on symbols; it is
exact at every truncation order (no mixing between orders beyond n1 + n2).
"""

from __future__ import annotations

from .actions import Diffeo, compose_diffeo
from .expr import Expr, as_expr, is_zero
from .symbols import FormalSymbol, PolyXi

_MINUS_I = Expr.gauss(0, -1)


class FormalFunction:
    """Truncated expansion psi^0 + h*psi^1 + ... of scalar expressions."""

    def __init__(self, order, terms):
        self.order = order
        self.terms = [as_expr(t) for t in terms]
        if len(self.terms) != order + 1:
            raise ValueError("expected %d terms" % (order + 1))

    @staticmethod
    def from_expr(e, order):
        terms = [as_expr(e)] + [Expr.zero()] * order
        return FormalFunction(order, terms)

    def is_zero(self):
        return all(is_zero(t).ok for t in self.terms)

    def sub(self, other):
        if self.order != other.order:
            raise ValueError("order mismatch")
        return FormalFunction(self.order,
                              [a - b for a, b in zip(self.terms, other.terms)])

    def __eq__(self, other):
        return isinstance(other, FormalFunction) and self.sub(other).is_zero()

    def __repr__(self):
        return "FormalFunction(%s)" % "; ".join(str(t) for t in self.terms)


class FormalOperator:
    """Op(symbol, phi): a FormalSymbol quantized over the diffeomorphism phi."""

    def __init__(self, symbol, phi):
        if symbol.dim != phi.dim:
            raise ValueError("coordinate count must match symbol dimension")
        self.symbol = symbol
        self.phi = phi

    @property
    def coords(self):
        return self.phi.coords

    @property
    def order(self):
        return self.symbol.order

    @property
    def terms(self):
        """Coefficient tables {alpha: coefficient}, one per expansion order."""
        return [comp.coeffs for comp in self.symbol.comps]


def _d_alpha(e, coords, alpha):
    """Apply D^alpha = (1/i)^|alpha| d^alpha to a scalar expression."""
    out = as_expr(e)
    for name, k in zip(coords, alpha):
        for _ in range(k):
            out = out.diff(name) * _MINUS_I
    return out


def apply(op, fn):
    """Apply a formal operator to a formal function, truncating at op.order."""
    if isinstance(fn, Expr) or isinstance(fn, (int,)):
        fn = FormalFunction.from_expr(as_expr(fn), op.order)
    if fn.order != op.order:
        raise ValueError("operator and function truncations must match")
    inv_map = dict(zip(op.coords, op.phi.inverse))
    out = [Expr.zero() for _ in range(op.order + 1)]
    for n, table in enumerate(op.terms):
        for alpha, f in table.items():
            for j, psi in enumerate(fn.terms):
                m = n + j
                if m > op.order:
                    break
                if psi.is_exact_zero():
                    continue
                deriv = _d_alpha(psi, op.coords, alpha).substitute(inv_map)
                out[m] = out[m] + f * deriv
    return FormalFunction(op.order, out)


def _product(p, phi1, k, phi2):
    """Symbol of Op(p, phi1) o Op(k, phi2).

    Only inverse maps enter: phi1's for the outer substitution, and the
    Jacobian of phi2's, which phi2 keeps, for the chain rule through the
    inner pullback.
    """
    coords, dim, order = phi1.coords, p.dim, p.order
    inv1_map = dict(zip(coords, phi1.inverse))
    # jac[i][j] = d_j (phi2^{-1})_i
    jac = phi2.inverse_jacobian()
    out = [dict() for _ in range(order + 1)]

    def add_term(n, gamma, coeff):
        table = out[n]
        if gamma in table:
            table[gamma] = table[gamma] + coeff
        else:
            table[gamma] = coeff

    for n1, comp1 in enumerate(p.comps):
        for alpha, f in comp1.coeffs.items():
            for n2, comp2 in enumerate(k.comps):
                if n1 + n2 > order:
                    break
                for beta, g in comp2.coeffs.items():
                    # carrier maps gamma -> coefficient of (D^gamma psi) o phi2^{-1}
                    carrier = {beta: g}
                    for j in range(dim):
                        for _ in range(alpha[j]):
                            nxt = {}
                            for gamma, c in carrier.items():
                                dc = c.diff(coords[j]) * _MINUS_I
                                if not dc.is_exact_zero():
                                    nxt[gamma] = nxt.get(gamma, Expr.zero()) + dc
                                for i in range(dim):
                                    ji = jac[i][j]
                                    if ji.is_exact_zero():
                                        continue
                                    gi = tuple(gamma[m] + (1 if m == i else 0)
                                               for m in range(dim))
                                    nxt[gi] = nxt.get(gi, Expr.zero()) + c * ji
                            carrier = nxt
                    for gamma, c in carrier.items():
                        coeff = f * c.substitute(inv1_map)
                        add_term(n1 + n2, gamma, coeff)

    # PolyXi drops the exact zeros
    return FormalSymbol(dim, order, [PolyXi(dim, table) for table in out])


def compose(op1, op2):
    """Composite operator op1 o op2 in normal form over phi1 o phi2."""
    if op1.coords != op2.coords:
        raise ValueError("coordinate mismatch")
    if op1.order != op2.order:
        raise ValueError("order mismatch")
    return FormalOperator(_product(op1.symbol, op1.phi, op2.symbol, op2.phi),
                          compose_diffeo(op1.phi, op2.phi))


def star(p, phi1, k, phi2):
    """Product of symbols induced by operator composition over phi1, phi2.

    This is compose(FormalOperator(p, phi1), FormalOperator(k, phi2)).symbol
    without building the composite diffeomorphism, which the symbol drops.
    """
    if phi1.dim != p.dim or phi1.dim != k.dim:
        raise ValueError("coordinate count must match symbol dimension")
    if p.order != k.order:
        raise ValueError("order mismatch")
    # structural test only: sampling tree coefficients here would draw from rng
    if not any(c.coeffs for c in p.comps) or not any(c.coeffs for c in k.comps):
        return FormalSymbol.zero(p.dim, p.order)
    return _product(p, phi1, k, phi2)


def standard_star(p, k, coords):
    """Star product over identity diffeomorphisms (pseudodifferential case)."""
    ident = Diffeo.identity(coords)
    return star(p, ident, k, ident)
