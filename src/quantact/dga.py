"""Group cochains valued in truncated symbols, and their graded algebra.

A degree-k cochain assigns to every k-tuple of group elements a FormalSymbol;
degree 0 is a single symbol.  The differential uses only interior face maps,

    (d a)(g_1, ..., g_{k+1}) = sum_{i=1..k} (-1)^i a(g_1, .., g_i g_{i+1}, .., g_{k+1}),

and the graded product twists by the action,

    (a * b)(g_1, .., g_{k+l}) = a(g_1..g_k) star b(g_{k+1}..g_{k+l})

with the star taken over the product diffeomorphisms of the two halves.
Degree-1 cochains a with da + a*a = 0 (Maurer-Cartan) are exactly those whose
quantizations compose like the group, T_{g1} T_{g2} = T_{g1 g2}.

Scalar phase cochains form the companion complex with the left action
(g.S)(x) = S(phi_g^{-1}(x)) included as the outer face maps; a real 1-cocycle
S there exponentiates to a Maurer-Cartan element g -> e^{i S_g}.  A
PhaseCochain is a Cochain whose values are scalar Exprs.  One interior-face
sum serves ``d`` and ``delta_phase``, and one ``cochain_zero_report`` both
kinds; the report folds the checks on each tuple through ``expr.all_zero``,
so a line is exact only when every check behind it is.

Every sum adds into one ``expr.Accumulator`` per output coefficient, a
symbol's through ``symbols.symbol_sum``.  ``add``, ``sub`` and ``scale``
return one lazy combination: nested combinations flatten into its terms
s * leaf, a leaf being any other cochain, so d and star_graded stay cached
and are read once per tuple (flattening through d would read its argument
on every face path).  A coefficient with a tree term, and a phase value,
takes the nested Expr arithmetic the calls built instead.  ``d`` and
``star_graded`` compute one value per distinct argument objects: d one sum
per face values, star_graded one star per (left value, phi1, right value,
phi2) and one carrier table per right value and map, so a value shared
between tuples, as (d a)(g, h) = -a(gh) is, costs one sum or star.

The twisted differential d_{P0} a = da + P0*a - (-1)^k a*P0 governs the
order-by-order correction problem: with P^1..P^{n-1} known, the order-n
correction solves d_{P0} P^n = -sum_{i+j=n} P^i * P^j, a finite exact linear
system over a declared coefficient basis.  ``solve_order`` assembles and
solves it, reporting either the canonical solution or the obstruction class.

Both ``solve_order`` and ``cohomology_dims`` take d_{P0} on order-n slots
s = (alpha, j), the symbol xi^alpha times basis element e_j, from one
builder, as the bar-complex differential of C^k(G, M), M the slot space.
With g the product of t, the column for s at the k-tuple t is, for every h,

    P0(h) star s over (phi_h, phi_g)   on the row (h,)+t,
    -(-1)^k s star P0(h) over (phi_g, phi_h)   on t+(h,),
    (-1)^(i+1) s   on each split row t[:i] + (h, h^-1 t_i) + t[i+1:].

This is exact, not a heuristic: P0*a reads a on the last k entries, a*P0
on the first k, and the i-th interior face of d a on the tuple with entries
i and i+1 merged, so on any other tuple every term evaluates a off t, where
it is the zero symbol.  The two stars, the left and right module structures
of M (Weibel, An Introduction to Homological Algebra, 1994, ch. 9), factor:
both callers build P0 at order n, so a star with s, in slot n, meets only
slot 0 of P0(h), a function f_h.  So P0(h) star s = L[h, j] xi^alpha for
every g, L[h, j] = f_h (e_j o phi_h^{-1}), and s star P0(h) = e_j (u_alpha
star P0(h)), u_alpha = xi^alpha with coefficient 1 in slot n; phi_g only
pulls its coefficients c back.  e_j c lies in a nonempty span for every j
only if c is a constant, which pulls back to itself: c s = lambda s, for an
eigenvector s of c on the span, forces c = lambda in the integral domain of
canonical exp-polynomials.  So R[h, alpha] = {gamma: c} from one star per
(h, alpha) over (id, phi_h), and e_j c has coordinates {j: c}; any other c,
or a slot of P0 above 0 past slot n, raises ``BasisEscapeError``.  The maps
hold (re, im) pairs, so the matrix is over Z[i] once ``linalg`` clears it.

When P0(e) = 1 and phi_e = id hold exactly, the builder works on the
normalized complex: tuples over G minus e, h != e and no split row holding
e, since every term it drops lands on a row holding e.
"""

from __future__ import annotations

import itertools
import random

from .actions import Diffeo
from .expr import Accumulator, Expr, _add_scaled, all_zero, as_expr, is_zero
from .linalg import SparseMatrix, _reduced_echelon, rank, solve
from .opcalc import FormalFunction, FormalOperator, apply, star
from .report import Report
from .symbols import FormalSymbol, PolyXi, monomial, multi_indices, symbol_sum


# ---------------------------------------------------------------------------
# cochains


class Cochain:
    """Group cochain with symbol (or scalar Expr) values, computed lazily and cached."""

    def __init__(self, action, degree, order, table=None, fn=None):
        self.action = action
        self.degree = degree
        self.order = order
        self._fn = fn
        self._cache = {}
        if table is not None:
            for gs, v in table.items():
                self._cache[tuple(gs)] = v
        if degree > 0 and table is None and fn is None:
            raise ValueError("need a table or a closure")

    @property
    def dim(self):
        return self.action.dim

    @staticmethod
    def zero(action, degree, order):
        z = FormalSymbol.zero(action.dim, order)
        return Cochain(action, degree, order, fn=lambda gs: z)

    @staticmethod
    def unit(action, order):
        """Degree-0 cochain with value 1 (the trivial quantization seed)."""
        return Cochain(action, 0, order,
                       table={(): FormalSymbol.one(action.dim, order)})

    def value(self, gs=()):
        gs = tuple(gs)
        if len(gs) != self.degree:
            raise ValueError("expected %d group elements" % self.degree)
        if gs in self._cache:
            return self._cache[gs]
        if self._fn is None:
            raise KeyError("no value stored for %r" % (gs,))
        v = self._fn(gs)
        self._cache[gs] = v
        return v

    def add(self, other):
        return _combination(self, "+", other)

    def sub(self, other):
        return _combination(self, "-", other)

    def scale(self, c):
        return _combination(self, "*", as_expr(c))

    def _check(self, other):
        if self.degree != other.degree or self.order != other.order:
            raise ValueError("cochain degree/order mismatch")

    def tuples(self):
        """All argument tuples (finite groups only)."""
        if not self.action.is_finite:
            raise ValueError("enumeration needs a finite group")
        return _tuples(self.action, self.degree)


def _combination(a, op, y):
    """a op y as one lazy linear combination (module docstring): per tuple,
    each leaf once, then one Accumulator per output coefficient over the flat
    terms s*leaf.  Phase values, and symbols with a tree term, take the plan's
    own arithmetic instead."""
    if op != "*":
        a._check(y)
        y = getattr(y, "plan", y)
    plan = (op, getattr(a, "plan", a), y)   # any cochain but a combination is a leaf
    terms = _flat(plan)
    leaves = list(dict.fromkeys(leaf for leaf, _ in terms))

    def val(gs):
        vals = {leaf: leaf.value(gs) for leaf in leaves}
        out = None if isinstance(vals[leaves[0]], Expr) else symbol_sum(
            a.dim, a.order, [(vals[leaf], s) for leaf, s in terms], strict=True)
        return _nested(plan, vals) if out is None else out

    out = Cochain(a.action, a.degree, a.order, fn=val)
    out.plan = plan
    return out


def _flat(plan, s=1):
    """The (leaf, s) terms of a plan, s the product of the scales and signs
    above the leaf: 1 or -1 when it is one, which adds without a product."""
    if isinstance(plan, Cochain):
        return [(plan, s)]
    op, x, y = plan
    if op == "*":
        s = y * s
        c = s.const_pair() if s.is_const() else None
        return _flat(x, c[0] if c in ((1, 0), (-1, 0)) else s)
    return _flat(x, s) + _flat(y, -s if op == "-" else s)


def _nested(plan, vals):
    """The value of a plan in symbol (or Expr) arithmetic, nested as it was built."""
    if isinstance(plan, Cochain):
        return vals[plan]
    op, x, y = plan
    u = _nested(x, vals)
    return u * y if op == "*" else u + _nested(y, vals) if op == "+" else u - _nested(y, vals)


def _tuples(action, k, normalized=False):
    """All k-tuples of group elements in lexicographic order, over G minus e
    when ``normalized``."""
    e = action.group.identity
    elems = [g for g in action.group.elements() if not (normalized and g == e)]
    return list(itertools.product(elems, repeat=k))


def test_tuples(action, degree, rng=None):
    """Argument tuples on which to verify identities.

    Finite groups enumerate everything; parameter groups use one fully
    symbolic tuple when the action's dependence is closed-form, plus four
    sampled rational tuples.
    """
    if action.is_finite:
        return _tuples(action, degree)
    rng = rng if rng is not None else random.Random(0)
    out = []
    if action.supports_symbolic_elements():
        out.append(tuple(action.group.symbolic_element(s + 1) for s in range(degree)))
    pool = action.sample_elements(rng, 4 + degree)
    for k in range(4):
        out.append(tuple(pool[(k + j) % len(pool)] for j in range(degree)))
    return out


def cochain_zero_report(c, title="cochain vanishes", rng=None):
    """Check c on its test tuples: one zero check per phase value or symbol coefficient."""
    rep = Report(title)
    for gs in test_tuples(c.action, c.degree, rng=rng):
        v = c.value(gs)
        scalars = ([v] if isinstance(v, Expr)
                   else [e for comp in v.comps for e in comp.coeffs.values()])
        chk = all_zero(is_zero(e, rng=rng) for e in scalars)
        rep.add("zero at %s" % _tuple_label(c.action, gs), chk.ok, chk.kind)
    return rep


def _tuple_label(action, gs):
    return "(" + ", ".join([action.group.labels[g] if action.is_finite else
                            "(" + ",".join(str(p) for p in g) + ")" for g in gs]) + ")"


# ---------------------------------------------------------------------------
# differential and product


def _faces(a, gs):
    """The pairs (a(g_1, .., g_i g_{i+1}, .., g_{k+1}), (-1)^i), i = 1..k = deg a."""
    return [(a.value(gs[:i - 1] + (a.action.mult(gs[i - 1], gs[i]),) + gs[i + 1:]),
             -1 if i % 2 else 1) for i in range(1, a.degree + 1)]


def _once(memo, operands, make):
    """make(), computed once per distinct operand objects: the memo is keyed
    on their ids and holds the operands, so no id is recycled."""
    key = tuple(map(id, operands))
    if key not in memo:
        memo[key] = operands, make()
    return memo[key][1]


def d(a):
    """Interior-face differential; zero map on degree 0."""
    dim, order, memo = a.action.dim, a.order, {}

    def val(gs):   # one sum per face values: their places fix the signs
        faces = _faces(a, gs)
        return _once(memo, [v for v, _ in faces], lambda: symbol_sum(dim, order, faces))

    return Cochain(a.action, a.degree + 1, order, fn=val)


def star_graded(a, b):
    """Graded product twisted by the action."""
    if a.action is not b.action and a.action.coords != b.action.coords:
        raise ValueError("cochains over different actions")
    k, l = a.degree, b.degree
    # one star per distinct (left value, phi1, right value, phi2), and one
    # carrier table per right value over its map, for the life of the product
    memo, carriers = {}, {}

    def val(gs):
        left, right = gs[:k], gs[k:]
        ops = (a.value(left), a.action.product_diffeo(left),
               b.value(right), a.action.product_diffeo(right))
        return _once(memo, ops, lambda: star(*ops, _once(carriers, ops[2:], dict)))

    return Cochain(a.action, k + l, a.order, fn=val)


def mc_residual(a):
    """Maurer-Cartan residual da + a*a of a degree-1 cochain."""
    if a.degree != 1:
        raise ValueError("Maurer-Cartan residual needs a degree-1 cochain")
    return d(a).add(star_graded(a, a))


def twisted_d(p0, a, check=True, rng=None):
    """Differential twisted by a Maurer-Cartan element p0 (degree 1)."""
    if p0.degree != 1:
        raise ValueError("twist must be a degree-1 cochain")
    if check:
        rep = cochain_zero_report(mc_residual(p0), "twist is Maurer-Cartan", rng=rng)
        if not rep.all_ok:
            raise ValueError("twist does not satisfy the Maurer-Cartan equation:\n"
                             + rep.render())
    k = a.degree
    sign = -1 if k % 2 else 1
    left = star_graded(p0, a)
    right = star_graded(a, p0).scale(sign)
    return d(a).add(left).sub(right)


# ---------------------------------------------------------------------------
# phase cochains


class PhaseCochain(Cochain):
    """Cochain of scalar phase functions: its values are Exprs, not symbols."""

    def __init__(self, action, degree, table=None, fn=None):
        if table is not None:
            table = {gs: as_expr(v) for gs, v in table.items()}
        super().__init__(action, degree, None, table=table,
                         fn=fn and (lambda gs: as_expr(fn(gs))))


def delta_phase(c):
    """Phase-complex differential with the pullback left action.

    (delta c)(g_1..g_{k+1}) = c(g_2..g_{k+1}) o phi_{g_1}^{-1}
        + sum_{i=1..k} (-1)^i c(.., g_i g_{i+1}, ..)
        + (-1)^{k+1} c(g_1..g_k).
    """
    k = c.degree

    def val(gs):
        acc = Accumulator(c.action.diffeo(gs[0]).pullback(c.value(gs[1:])))
        for v, s in _faces(c, gs) + [(c.value(gs[:k]), 1 if k % 2 else -1)]:
            acc.add(v, s)
        return acc.expr()

    return PhaseCochain(c.action, k + 1, fn=val)


def exp_system(s, order=0):
    """Exponentiate a degree-1 phase cochain into a symbol-valued cochain."""
    if s.degree != 1:
        raise ValueError("exponentiation needs a degree-1 phase cochain")
    i_unit = Expr.imag_unit()
    dim = s.action.dim

    def val(gs):
        return FormalSymbol.from_scalar(dim, order, Expr.exp(i_unit * s.value(gs)))

    return Cochain(s.action, 1, order, fn=val)


def character_phase(action, invariant, character=None):
    """Degree-1 phase cochain S_g = character(g) * invariant.

    ``invariant`` should satisfy invariant o phi_g^{-1} = invariant and
    ``character`` should be additive, character(g1 g2) = character(g1) +
    character(g2); then delta S = 0.  Default character: the sole group
    parameter itself.
    """
    if character is None:
        def character(g):
            return g[0]

    return PhaseCochain(action, 1, fn=lambda gs: character(gs[0]) * invariant)


# ---------------------------------------------------------------------------
# representations and gauge equivalence


def representation_report(a, psis, rng=None, pairs=None, title="representation property"):
    """Check T_{g1} T_{g2} psi = T_{g1 g2} psi by direct application.

    This route uses only operator application (no star products), so it is
    independent of the residual computation it is compared against.
    """
    action = a.action
    rep = Report(title)
    if pairs is None:
        pairs = test_tuples(action, 2, rng=rng)
    for gs in pairs:
        g1, g2 = gs
        t1 = FormalOperator(a.value((g1,)), action.diffeo(g1))
        t2 = FormalOperator(a.value((g2,)), action.diffeo(g2))
        t12 = FormalOperator(a.value((action.mult(g1, g2),)),
                             action.product_diffeo((g1, g2)))
        checks = []
        for psi in psis:
            f = FormalFunction.from_expr(psi, a.order)
            lhs = apply(t1, apply(t2, f))
            rhs = apply(t12, f)
            checks.extend(is_zero(u - v, rng=rng) for u, v in zip(lhs.terms, rhs.terms))
        chk = all_zero(checks)
        rep.add("pair %s" % _tuple_label(action, gs), chk.ok, chk.kind)
    return rep


def gauge_residual(a, b, u):
    """Intertwining residual a*u - u*b as a degree-1 cochain.

    ``u`` is a degree-0 cochain (or FormalSymbol); the residual vanishes
    exactly when quantizing u intertwines the two systems.
    """
    action = a.action
    if isinstance(u, FormalSymbol):
        u = Cochain(action, 0, a.order, table={(): u})
    ident = Diffeo.identity(action.coords)
    # u over the identity is the right operand of every left star
    carriers = {}

    def val(gs):
        (g,) = gs
        phi = action.diffeo(g)
        left = star(a.value((g,)), phi, u.value(()), ident, carriers)
        right = star(u.value(()), ident, b.value((g,)), phi)
        return left.sub(right)

    return Cochain(action, 1, a.order, fn=val)


def gauge_report(a, b, u, rng=None, title="gauge equivalence"):
    return cochain_zero_report(gauge_residual(a, b, u), title, rng=rng)


# ---------------------------------------------------------------------------
# coefficient bases


class BasisEscapeError(ValueError):
    """A coefficient left the declared span."""


class CoefficientBasis:
    """Finite Expr basis for coefficient functions, with exact decomposition.

    The basis is kept in reduced echelon form: one row per pivot monomial,
    holding the row's other monomials and its coordinates in ``exprs``.  An
    expression's echelon coordinates are its coefficients at the pivot
    monomials, so decomposing it is one sparse pass over its terms.
    """

    def __init__(self, exprs):
        self.exprs = [as_expr(e) for e in exprs]
        for e in self.exprs:
            if not e.is_canonical:
                raise ValueError("basis elements must canonicalize")
        monos = list(dict.fromkeys(m for e in self.exprs for m in e.poly.terms))
        index = {m: i for i, m in enumerate(monos)}
        # Gauss-Jordan on [E | I], one row per basis element, pivots on monomials
        nm = len(monos)
        rows = [{index[m]: c for m, c in e.poly.terms.items()} for e in self.exprs]
        for j, row in enumerate(rows):
            row[nm + j] = (1, 0)
        echelon = _reduced_echelon(rows, nm)
        if len(echelon) != len(self.exprs):
            raise ValueError("basis expressions are linearly dependent")
        self._monomials = set(monos)
        self._echelon = {}
        for col, row in echelon.items():
            others = {monos[k]: c for k, c in row.items() if k < nm and k != col}
            back = {k - nm: c for k, c in row.items() if k >= nm}
            self._echelon[monos[col]] = (others, back)

    def __len__(self):
        return len(self.exprs)

    @staticmethod
    def monomials(coords, max_degree):
        return CoefficientBasis([monomial(coords, alpha)
                                 for alpha in multi_indices(len(coords), max_degree)])

    def decompose(self, e):
        """Nonzero coordinates {j: (re, im)} of e; raises BasisEscapeError if outside.

        e lies in the span iff it equals the sum of its pivot coefficients
        times the echelon rows, which holds at the pivot monomials by
        construction; ``rest`` collects the nonzero difference at the others.
        """
        e = as_expr(e)
        if not e.is_canonical:
            raise BasisEscapeError("coefficient %s is outside the polynomial class" % e)
        out, rest = {}, {}
        for mono, c in e.poly.terms.items():
            row = self._echelon.get(mono)
            if row is None:
                if mono not in self._monomials:
                    raise BasisEscapeError("coefficient %s escapes the basis span" % e)
                _add_scaled(rest, ((mono, c),), 1, 0)
                continue
            others, back = row
            _add_scaled(rest, others.items(), -c[0], -c[1])
            _add_scaled(out, back.items(), *c)
        if rest:
            raise BasisEscapeError("coefficient %s escapes the basis span" % e)
        return out

    def closure_report(self, action, rng=None):
        """Check the span is preserved by all (sampled) pullbacks."""
        rep = Report("basis closed under the action")
        for g in action.sample_elements(rng or random.Random(0), 6):
            phi = action.diffeo(g)
            ok = True
            for e in self.exprs:
                try:
                    self.decompose(phi.pullback(e))
                except BasisEscapeError:
                    ok = False
            rep.add("pullback by %s" % _tuple_label(action, (g,)), ok)
        return rep

    def combine(self, coords):
        """The expression with (re, im) coordinates {j: c}; the inverse of ``decompose``."""
        acc = Accumulator()
        for j, c in coords.items():
            if c != (0, 0):
                acc.add(self.exprs[j], c)
        return acc.expr()


# ---------------------------------------------------------------------------
# order-by-order solving


class SolveResult:
    def __init__(self, order, solution=None, obstruction=None, cocycle_basis=None,
                 kernel_dim=0, rhs_closed=None):
        self.order = order
        self.solution = solution
        self.obstruction = obstruction
        self.cocycle_basis = cocycle_basis
        self.kernel_dim = kernel_dim
        self.rhs_closed = rhs_closed

    @property
    def solved(self):
        return self.solution is not None


def _slot_coeffs(v, n):
    """{alpha: coefficient} of the order-n slot of a symbol, every other slot
    zero; an empty slot is zero without a check."""
    if any(comp.coeffs and not comp.is_zero() for n2, comp in enumerate(v.comps) if n2 != n):
        raise BasisEscapeError("value has support outside the solved order")
    return v.comps[n].coeffs


def _decompose_symbol_slot(v, n, basis):
    """(re, im) coordinates of the order-n slot of a symbol in (alpha, basis) blocks."""
    return {(alpha, j): c for alpha, coeff in _slot_coeffs(v, n).items()
            for j, c in basis.decompose(coeff).items()}


def _slot_symbol(dim, order, n, coeffs):
    """Symbol of truncation ``order`` with the {alpha: coefficient} ``coeffs`` in slot n."""
    comps = [PolyXi.zero(dim)] * (order + 1)   # one shared empty slot
    comps[n] = PolyXi(dim, coeffs)
    return FormalSymbol(dim, order, comps)


def _is_unital(action, p0):
    """True when P0(e) = 1 and phi_e = id hold exactly, never by sampling.

    Then the cochains vanishing on every tuple holding e form a subcomplex of
    d_{P0}, and its inclusion is a quasi-isomorphism (the normalized bar
    complex: Weibel, An Introduction to Homological Algebra, 1994, ch. 6, 9).
    """
    e = action.group.identity
    phi = action.diffeo(e)
    gaps = [c for comp in p0.value((e,)).sub(FormalSymbol.one(action.dim, p0.order)).comps
            for c in comp.coeffs.values()]
    gaps += [f - Expr.var(x) for f, x in zip(phi.forward + phi.inverse, phi.coords * 2)]
    return all(v.is_canonical and is_zero(v).ok for v in gaps)


def _slot_maps(action, p0, n, basis, normalized=False):
    """(re, im) slot coordinates of the factors L[h, j] and R[h, alpha]
    (module docstring); no h = e when ``normalized``, and no R over no basis."""
    dim, order = action.dim, p0.order
    ident = Diffeo.identity(action.coords)
    units = {a: _slot_symbol(dim, order, n, {a: Expr.one()}) for a in multi_indices(dim, n)}
    left, right = {}, {}
    for (h,) in _tuples(action, 1, normalized):
        p, phi_h = p0.value((h,)), action.diffeo(h)
        f_h = p.comps[0].coefficient((0,) * dim)
        for j, e in enumerate(basis.exprs):
            left[h, j] = basis.decompose(f_h * phi_h.pullback(e))
        carriers = {}   # of P0(h) over phi_h, the right operand of every star below
        for alpha, u in units.items():
            v = star(u, ident, p, phi_h, carriers)
            if not basis.exprs:
                continue   # no coordinate is read, so none escapes
            coeffs = _slot_coeffs(v, n)
            for c in coeffs.values():
                if not c.is_const():
                    raise BasisEscapeError("right factor coefficient %s is not a constant" % c)
            right[h, alpha] = {gamma: c.const_pair() for gamma, c in coeffs.items()}
    return left, right


def _matrix_of_twisted_d(action, maps, cols, row_index, normalized=False):
    """Matrix of d_{P0} from columns (t, alpha, j) to rows, read off ``maps``,
    each column one dict row -> (re, im) summed part by part.

    On the normalized complex every tuple is e-free: h runs over G minus e,
    and the split row of t_i = h, which holds e, is skipped.
    """
    left, right = maps
    splits = [(h, action.inverse(h)) for (h,) in _tuples(action, 1, normalized)]
    columns = []
    for t, slots in itertools.groupby(cols, lambda c: c[0]):
        sign = 1 if len(t) % 2 else -1   # R enters as -(-1)^k R
        # per h: the rows (h,)+t and t+(h,), and the split rows, (-1)^(i+1) each
        faces = [(h, (h,) + t, t + (h,), [
            (t[:i] + (h, action.mult(h_inv, gi)) + t[i + 1:], 1 if i % 2 else -1)
            for i, gi in enumerate(t) if not (normalized and gi == h)]) for h, h_inv in splits]
        for _, alpha, j in slots:
            entries = [(row_index[ht, alpha, j2], e) for h, ht, _, _ in faces
                       for j2, e in left[h, j].items()]
            entries += [(row_index[th, gamma, j], (sign * x, sign * y)) for h, _, th, _ in faces
                        for gamma, (x, y) in right[h, alpha].items()]
            entries += [(row_index[split, alpha, j], (s, 0)) for *_, split_rows in faces
                        for split, s in split_rows]
            col = {}
            for r, (x, y) in entries:
                cur = col.get(r)
                col[r] = (x, y) if cur is None else (cur[0] + x, cur[1] + y)
            # only a sum of colliding entries can vanish
            columns.append(col if len(col) == len(entries) else
                           {r: e for r, e in col.items() if e[0] or e[1]})
    return SparseMatrix(len(row_index), columns)


def _twisted_d_matrices(action, p0, n, basis, tuples, normalized):
    """Slot coordinates on each ``tuples[k]`` and the matrices of d_{P0} from
    ``tuples[k]`` to ``tuples[k + 1]``, from one set of slot maps.

    ``normalized`` (every tuple e-free, P0 unital) drops h = e from the maps
    and the entries on rows holding e from the matrices.
    """
    slots = [(alpha, j) for alpha in multi_indices(action.dim, n) for j in range(len(basis))]
    coords = [[(t, alpha, j) for t in ts for alpha, j in slots] for ts in tuples]
    maps = _slot_maps(action, p0, n, basis, normalized)
    mats = [_matrix_of_twisted_d(action, maps, coords[k],
                                 {c: i for i, c in enumerate(coords[k + 1])}, normalized)
            for k in range(len(tuples) - 1)]
    return coords, mats


def _slot_cochain(action, n, basis, coords, vec, degree):
    """Order-n cochain of ``degree`` whose slot n has the (re, im) coordinates
    ``vec`` on ``coords``, summed in one Accumulator per (t, alpha)."""
    slots = {t: {} for t in _tuples(action, degree)}
    for (t, alpha, j), c in zip(coords, vec):
        if c != (0, 0):
            slots[t].setdefault(alpha, Accumulator()).add(basis.exprs[j], c)
    table = {t: _slot_symbol(action.dim, n, n, {alpha: acc.expr() for alpha, acc in sums.items()})
             for t, sums in slots.items()}
    return Cochain(action, degree, n, table=table)


def solve_order(action, p0, below, n, basis, rhs_cochain=None, rng=None):
    """Solve the order-n correction equation d_{P0} P^n = -sum P^i * P^j.

    ``below`` maps orders 1..n-1 to the already-solved degree-1 cochains
    (each supported in its pure order slot).  The closedness of the
    right-hand side is certified exactly on every run.  When the right-hand
    side vanishes the cocycle basis is returned as well.  Finite groups only.

    A nonzero obstruction is reported as the canonical remainder of the
    right-hand side against the image of d_{P0} (free variables pinned to
    zero), together with the exact rank bookkeeping.

    The unknowns live on G minus e.  The rows are the e-free pairs when
    P0(e) = 1 and phi_e = id hold exactly and the right-hand side has no
    basis coordinate on a pair holding e, where d_{P0} of an e-free cochain
    vanishes too; otherwise they are all |G|^2 pairs.
    """
    if not action.is_finite:
        raise ValueError("order-by-order solving is implemented for finite groups")
    rhs = rhs_cochain
    if rhs is None:
        rhs = Cochain.zero(action, 2, n)
        for i in range(1, n):
            if i in below and n - i in below:
                rhs = rhs.sub(star_graded(below[i], below[n - i]))

    closed = cochain_zero_report(twisted_d(p0, rhs, check=False), rng=rng).all_ok

    e = action.group.identity
    rhs_coords = {t: _decompose_symbol_slot(rhs.value(t), n, basis) for t in _tuples(action, 2)}
    normalized = _is_unital(action, p0) and not any(c for t, c in rhs_coords.items() if e in t)
    (cols, rows), (m,) = _twisted_d_matrices(
        action, p0, n, basis, [_tuples(action, 1, True), _tuples(action, 2, normalized)],
        normalized)
    b = [rhs_coords[t].get((alpha, j), (0, 0)) for t, alpha, j in rows]

    x, residual, kernel = solve(m, b)

    rhs_is_zero = all(v == (0, 0) for v in b)
    cocycle_basis = ([_slot_cochain(action, n, basis, cols, v, 1) for v in kernel]
                     if rhs_is_zero else None)

    if residual is None:
        return SolveResult(n, solution=_slot_cochain(action, n, basis, cols, x, 1),
                           cocycle_basis=cocycle_basis, kernel_dim=len(kernel),
                           rhs_closed=closed)

    # obstruction: canonical remainder (b - A x) repackaged as a 2-cochain
    obstruction = _slot_cochain(action, n, basis, rows, residual, 2)
    return SolveResult(n, obstruction=obstruction,
                       kernel_dim=len(kernel), rhs_closed=closed)


# ---------------------------------------------------------------------------
# cohomology dimensions


def cohomology_dims(action, basis, p0=None, n_max=2):
    """Dimensions of H^0, H^1, H^2 of the twisted complex per symbol order.

    Cochains are maps G^k -> order-n frequency polynomials with coefficients
    in the basis span.  When the twist has P0(e) = 1 and phi_e = id exactly,
    they are the normalized ones, on tuples over G minus e, which give the
    same H^k; otherwise (a zero twist, say) they are the full ones on G^k.
    Only the order-0 part of the twist acts on a fixed symbol order, so that
    part is extracted from ``p0`` (default: the trivial system).  Finite
    groups only; ranks are exact.
    """
    if not action.is_finite:
        raise ValueError("cohomology dimensions need a finite group")
    out = {}
    for n in range(n_max + 1):
        p0n = (trivial_system(action, n) if p0 is None else
               Cochain(action, 1, n, fn=lambda gs, k=n: _lift_leading(p0.value(gs), k)))
        if n == 0:   # P0(e) = 1 reads only slot 0 of P0(e), the same at every order
            normalized = _is_unital(action, p0n)
        (c0, c1, c2, _), mats = _twisted_d_matrices(
            action, p0n, n, basis, [_tuples(action, k, normalized) for k in range(4)],
            normalized)
        r0, r1, r2 = (rank(m) for m in mats)
        out[n] = {"H0": len(c0) - r0, "H1": len(c1) - r1 - r0, "H2": len(c2) - r2 - r1}
    return out


def _lift_leading(v, order):
    return _slot_symbol(v.dim, order, 0, v.comps[0].coeffs)


def trivial_system(action, order):
    one = FormalSymbol.one(action.dim, order)
    return Cochain(action, 1, order, fn=lambda gs: one)

