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

The carriers D^alpha[g * (D^beta psi) o phi2^{-1}] depend on the right
operand (k, phi2) only.  Each is built once per right operand of a product
cochain, in a table keyed by (n2, beta, alpha), from the carrier of
alpha - e_j: ``dga.star_graded`` hands ``star`` one table per right tuple,
and a call without a table fills a fresh one.  Pullbacks by phi1^{-1} go
through ``Diffeo.pullback``: each map keeps one substitution of its inverse,
which keeps the images of the monomials it meets.  Each output coefficient
sums its terms f * phi1^*(c) in one ``expr.Accumulator``, and only nonempty
components are walked, so empty slots cost a star nothing.
"""

from __future__ import annotations

from .actions import Diffeo, compose_diffeo
from .expr import Accumulator, Expr, as_expr, is_zero
from .symbols import FormalSymbol, PolyXi, lower_last

_MINUS_I = Expr.gauss(0, -1)
_ZERO = Expr.zero()


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
    out = [Accumulator(_ZERO) for _ in range(op.order + 1)]
    for n, table in enumerate(op.terms):
        for alpha, f in table.items():
            for j, psi in enumerate(fn.terms):
                m = n + j
                if m > op.order:
                    break
                if psi.is_exact_zero():
                    continue
                out[m].add(f, op.phi.pullback(_d_alpha(psi, op.coords, alpha)))
    return FormalFunction(op.order, [s.expr() for s in out])


def _carrier_step(carrier, coords, j, jac):
    """D_j of sum_gamma c_gamma (D^gamma psi) o phi2^{-1}, each coefficient a
    sum from zero; a constant c_gamma is not differentiated."""
    nxt = {}
    for gamma, c in carrier.items():
        if not c.is_const():
            dc = c.diff(coords[j])
            if not dc.is_exact_zero():
                (nxt.get(gamma) or nxt.setdefault(gamma, Accumulator(_ZERO))).add(dc, _MINUS_I)
        for i, row in enumerate(jac):
            ji = row[j]
            if not ji.is_exact_zero():
                gi = gamma[:i] + (gamma[i] + 1,) + gamma[i + 1:]
                (nxt.get(gi) or nxt.setdefault(gi, Accumulator(_ZERO))).add(c, ji)
    return {gamma: acc.expr() for gamma, acc in nxt.items()}


def _product(p, phi1, k, phi2, carriers=None):
    """Symbol of Op(p, phi1) o Op(k, phi2).

    Only inverse maps enter: phi1's for the outer pullback, and the
    Jacobian of phi2's, which phi2 keeps, for the chain rule through the
    inner pullback.  Carriers are built once per right operand of a product
    cochain (module docstring): ``carriers`` is the table of (k, phi2),
    filled here as alpha asks; without one the call fills a fresh table.
    """
    coords, dim, order = phi1.coords, p.dim, p.order
    # jac[i][j] = d_j (phi2^{-1})_i
    jac = phi2.inverse_jacobian
    # (n2, beta, alpha) -> carrier: gamma -> coefficient of (D^gamma psi) o phi2^{-1}
    if carriers is None:
        carriers = {}

    def carrier(n2, beta, g, alpha):
        key = (n2, beta, alpha)
        if key not in carriers:
            step = lower_last(alpha)
            carriers[key] = {beta: g} if step is None else _carrier_step(
                carrier(n2, beta, g, step[1]), coords, step[0], jac)
        return carriers[key]

    # only nonempty components are walked; out[n][gamma] sums f * phi1^*(c)
    right = [(n2, comp.coeffs) for n2, comp in enumerate(k.comps) if comp.coeffs]
    out = {}
    for n1, comp1 in enumerate(p.comps):
        for alpha, f in comp1.coeffs.items():
            for n2, coeffs2 in right:
                if n1 + n2 > order:
                    break
                table = out.setdefault(n1 + n2, {})
                for beta, g in coeffs2.items():
                    for gamma, c in carrier(n2, beta, g, alpha).items():
                        acc = table.get(gamma) or table.setdefault(gamma, Accumulator())
                        acc.add(f, phi1.pullback(c))

    # the sums may be exact zeros, which PolyXi.unchecked drops; an empty
    # component is one shared empty PolyXi
    empty = PolyXi.unchecked(dim, {})
    return FormalSymbol.unchecked(dim, order, [
        PolyXi.unchecked(dim, {gamma: acc.expr() for gamma, acc in out[n].items()})
        if n in out else empty for n in range(order + 1)])


def compose(op1, op2):
    """Composite operator op1 o op2 in normal form over phi1 o phi2."""
    if op1.coords != op2.coords:
        raise ValueError("coordinate mismatch")
    if op1.order != op2.order:
        raise ValueError("order mismatch")
    return FormalOperator(_product(op1.symbol, op1.phi, op2.symbol, op2.phi),
                          compose_diffeo(op1.phi, op2.phi))


def star(p, phi1, k, phi2, carriers=None):
    """Product of symbols induced by operator composition over phi1, phi2.

    This is compose(FormalOperator(p, phi1), FormalOperator(k, phi2)).symbol
    without building the composite diffeomorphism, which the symbol drops.
    ``carriers`` is the carrier table of the right operand (k, phi2), kept
    by a caller that multiplies several left operands by it; every call
    that passes it must pass the same k and phi2.
    """
    if phi1.dim != p.dim or phi1.dim != k.dim:
        raise ValueError("coordinate count must match symbol dimension")
    if p.order != k.order:
        raise ValueError("order mismatch")
    # structural test only: sampling tree coefficients here would draw from rng
    if not any(c.coeffs for c in p.comps) or not any(c.coeffs for c in k.comps):
        return FormalSymbol.zero(p.dim, p.order)
    return _product(p, phi1, k, phi2, carriers)


def standard_star(p, k, coords):
    """Star product over identity diffeomorphisms (pseudodifferential case)."""
    ident = Diffeo.identity(coords)
    return star(p, ident, k, ident)
