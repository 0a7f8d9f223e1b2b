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
from .expr import Expr, GaussRat, as_expr, is_zero
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
    """Normal form: list over the expansion order of {alpha: coefficient}."""

    def __init__(self, coords, order, terms, phi):
        self.coords = list(coords)
        self.order = order
        self.terms = [dict(t) for t in terms]
        self.phi = phi
        if len(self.terms) != order + 1:
            raise ValueError("expected %d order slots" % (order + 1))
        for n, table in enumerate(self.terms):
            for alpha in table:
                if len(alpha) != self.dim:
                    raise ValueError("multi-index length mismatch")
                if sum(alpha) > n:
                    raise ValueError("derivative order %d exceeds slot %d"
                                     % (sum(alpha), n))

    @property
    def dim(self):
        return len(self.coords)

    @staticmethod
    def identity(coords, order):
        terms = [{} for _ in range(order + 1)]
        terms[0] = {tuple([0] * len(coords)): Expr.one()}
        return FormalOperator(coords, order, terms, Diffeo.identity(coords))


def to_operator(sym, phi, coords=None):
    """Quantize a FormalSymbol over the diffeomorphism phi."""
    coords = list(coords if coords is not None else phi.coords)
    if len(coords) != sym.dim:
        raise ValueError("coordinate count must match symbol dimension")
    terms = [dict(comp.coeffs) for comp in sym.comps]
    return FormalOperator(coords, sym.order, terms, phi)


def to_symbol(op):
    """Read the symbol back off a formal operator."""
    return FormalSymbol(op.dim, op.order,
                        [PolyXi(op.dim, table) for table in op.terms])


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


def _compose_terms(coords, order, terms1, phi1, terms2, phi2):
    """Coefficient tables of (terms1 over phi1) o (terms2 over phi2).

    Only inverse maps enter: phi1's for the outer substitution, and the
    Jacobian of phi2's, which phi2 keeps, for the chain rule through the
    inner pullback.  Exact zeros are dropped from the result.
    """
    dim = len(coords)
    inv1_map = dict(zip(coords, phi1.inverse))
    # jac[k][j] = d_j (phi2^{-1})_k
    jac = phi2.inverse_jacobian()
    out = [dict() for _ in range(order + 1)]

    def add_term(n, gamma, coeff):
        table = out[n]
        if gamma in table:
            table[gamma] = table[gamma] + coeff
        else:
            table[gamma] = coeff

    for n1, table1 in enumerate(terms1):
        for alpha, f in table1.items():
            for n2, table2 in enumerate(terms2):
                if n1 + n2 > order:
                    break
                for beta, g in table2.items():
                    # carrier maps gamma -> coefficient of (D^gamma psi) o phi2^{-1}
                    carrier = {beta: g}
                    for j in range(dim):
                        for _ in range(alpha[j]):
                            nxt = {}
                            for gamma, c in carrier.items():
                                dc = c.diff(coords[j]) * _MINUS_I
                                if not dc.is_exact_zero():
                                    nxt[gamma] = nxt.get(gamma, Expr.zero()) + dc
                                for k in range(dim):
                                    jk = jac[k][j]
                                    if jk.is_exact_zero():
                                        continue
                                    gk = tuple(gamma[m] + (1 if m == k else 0)
                                               for m in range(dim))
                                    nxt[gk] = nxt.get(gk, Expr.zero()) + c * jk
                            carrier = nxt
                    for gamma, c in carrier.items():
                        coeff = f * c.substitute(inv1_map)
                        add_term(n1 + n2, gamma, coeff)

    return [{g: c for g, c in table.items()
             if not c.is_exact_zero()}
            for table in out]


def compose(op1, op2):
    """Composite operator op1 o op2 in normal form over phi1 o phi2."""
    if op1.coords != op2.coords:
        raise ValueError("coordinate mismatch")
    if op1.order != op2.order:
        raise ValueError("order mismatch")
    terms = _compose_terms(op1.coords, op1.order, op1.terms, op1.phi,
                           op2.terms, op2.phi)
    return FormalOperator(op1.coords, op1.order, terms,
                          compose_diffeo(op1.phi, op2.phi))


def star(p, phi1, k, phi2, coords=None):
    """Product of symbols induced by operator composition over phi1, phi2.

    This is to_symbol(compose(to_operator(p, phi1), to_operator(k, phi2)))
    without building the composite diffeomorphism, which the symbol drops.
    """
    coords = list(coords if coords is not None else phi1.coords)
    if len(coords) != p.dim or len(coords) != k.dim:
        raise ValueError("coordinate count must match symbol dimension")
    if p.order != k.order:
        raise ValueError("order mismatch")
    dim, order = p.dim, p.order
    terms1 = [comp.coeffs for comp in p.comps]
    terms2 = [comp.coeffs for comp in k.comps]
    # structural test only: sampling tree coefficients here would draw from rng
    if not any(terms1) or not any(terms2):
        return FormalSymbol.zero(dim, order)
    terms = _compose_terms(coords, order, terms1, phi1, terms2, phi2)
    return FormalSymbol(dim, order, [PolyXi(dim, table) for table in terms])


def standard_star(p, k, coords):
    """Star product over identity diffeomorphisms (pseudodifferential case)."""
    ident = Diffeo.identity(coords)
    return star(p, ident, k, ident, coords)
