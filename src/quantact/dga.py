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
PhaseCochain is a Cochain whose values are scalar Exprs.  Symbols and Exprs
share the operators +, -, unary - and scalar *, so one Cochain algebra
(``add``, ``sub``, ``scale``), one interior-face sum (used by ``d`` and by
``delta_phase``) and one ``cochain_zero_report`` serve both kinds.  The
report folds the checks on each tuple through ``expr.all_zero``, so a line
is exact only when every check behind it is.

The twisted differential d_{P0} a = da + P0*a - (-1)^k a*P0 governs the
order-by-order correction problem: with P^1..P^{n-1} known, the order-n
correction solves d_{P0} P^n = -sum_{i+j=n} P^i * P^j, a finite exact linear
system over a declared coefficient basis.  ``solve_order`` assembles and
solves it, reporting either the canonical solution or the obstruction class.

Both ``solve_order`` and ``cohomology_dims`` take d_{P0} on order-n slots
s = (alpha, j), the symbol xi^alpha times basis element j, from one builder,
as the bar-complex differential of C^k(G, M), M the slot space.  With g the
product of t, the column for s at the k-tuple t is, for every h,

    L[h, g, s] = P0(h) star s over (phi_h, phi_g)   on the row (h,)+t,
    -(-1)^k R[g, h, s], R = s star P0(h) over (phi_g, phi_h)   on t+(h,),
    (-1)^(i+1) s   on each split row t[:i] + (h, h^-1 t_i) + t[i+1:].

This is exact, not a heuristic: P0*a reads a on the last k entries, a*P0
on the first k, and the i-th interior face of d a on the tuple with entries
i and i+1 merged, so on any other tuple every term evaluates a off t, where
it is the zero symbol.  L and R depend on t only through g, so each is one
star product per (h, g, s).  The basis escape check runs on each star term,
not on each row sum; both callers build P0 at truncation order n, so every
term lies in slot n and the two checks agree.

When P0(e) = 1 and phi_e = id hold exactly, the builder works on the
normalized complex: tuples over G minus e, h != e and no split row holding
e, since every term it drops lands on a row holding e.
"""

from __future__ import annotations

import itertools
import random

from .actions import Diffeo
from .expr import (GR_ONE, Expr, GaussRat, _accumulate, all_zero,
                   as_expr, is_zero)
from .linalg import SparseMatrix, _reduced_echelon, rank, solve
from .opcalc import FormalFunction, FormalOperator, apply, star
from .report import Report
from .symbols import FormalSymbol, PolyXi, monomial, multi_indices


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
        self._check(other)
        return Cochain(self.action, self.degree, self.order,
                       fn=lambda gs: self.value(gs) + other.value(gs))

    def sub(self, other):
        self._check(other)
        return Cochain(self.action, self.degree, self.order,
                       fn=lambda gs: self.value(gs) - other.value(gs))

    def scale(self, c):
        return Cochain(self.action, self.degree, self.order,
                       fn=lambda gs: self.value(gs) * c)

    def _check(self, other):
        if self.degree != other.degree or self.order != other.order:
            raise ValueError("cochain degree/order mismatch")

    def tuples(self):
        """All argument tuples (finite groups only)."""
        if not self.action.is_finite:
            raise ValueError("enumeration needs a finite group")
        return _tuples(self.action, self.degree)


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
    names = []
    for g in gs:
        if action.is_finite:
            names.append(action.group.labels[g])
        else:
            names.append("(" + ",".join(str(p) for p in g) + ")")
    return "(" + ", ".join(names) + ")" if names else "()"


# ---------------------------------------------------------------------------
# differential and product


def _interior_faces(a, gs, total):
    """total + sum_{i=1..k} (-1)^i a(g_1, .., g_i g_{i+1}, .., g_{k+1}), k = deg a."""
    for i in range(1, a.degree + 1):
        merged = gs[:i - 1] + (a.action.mult(gs[i - 1], gs[i]),) + gs[i + 1:]
        face = a.value(merged)
        total = total - face if i % 2 else total + face
    return total


def d(a):
    """Interior-face differential; zero map on degree 0."""
    dim, order = a.action.dim, a.order
    return Cochain(a.action, a.degree + 1, order,
                   fn=lambda gs: _interior_faces(a, gs, FormalSymbol.zero(dim, order)))


def star_graded(a, b):
    """Graded product twisted by the action."""
    if a.action is not b.action and a.action.coords != b.action.coords:
        raise ValueError("cochains over different actions")
    k, l = a.degree, b.degree
    # one carrier table per right tuple for the life of the product: b(right)
    # over its map is the right operand of every star on that tuple
    carriers = {}

    def val(gs):
        left, right = gs[:k], gs[k:]
        phi1 = a.action.product_diffeo(left)
        phi2 = a.action.product_diffeo(right)
        return star(a.value(left), phi1, b.value(right), phi2,
                    carriers.setdefault(right, {}))

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
        total = c.action.diffeo(gs[0]).pullback(c.value(gs[1:]))
        total = _interior_faces(c, gs, total)
        last = c.value(gs[:k])
        return total + last if k % 2 else total - last

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
            row[nm + j] = GR_ONE
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
        """Nonzero coordinates {j: c} of e; raises BasisEscapeError if outside.

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
                _accumulate(rest, mono, c)
                continue
            others, back = row
            for m, v in others.items():
                _accumulate(rest, m, -(c * v))
            for j, v in back.items():
                _accumulate(out, j, c * v)
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
        """The expression with coordinates {j: c}; the inverse of ``decompose``."""
        out = Expr.zero()
        for j, c in coords.items():
            if not c.is_zero():
                out = out + as_expr(GaussRat.of(c)) * self.exprs[j]
        return out


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


def _decompose_symbol_slot(v, n, basis):
    """Coordinates of the order-n slot of a symbol in (alpha, basis) blocks."""
    out = {}
    for alpha, coeff in v.comps[n].coeffs.items():
        for j, c in basis.decompose(coeff).items():
            out[(alpha, j)] = c
    for n2, comp2 in enumerate(v.comps):
        if n2 != n and not comp2.is_zero():
            raise BasisEscapeError("value has support outside the solved order")
    return out


def _slot_symbol(dim, order, n, coeffs):
    """Symbol of truncation ``order`` with the {alpha: coefficient} ``coeffs`` in slot n."""
    comps = [PolyXi.zero(dim) for _ in range(order + 1)]
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


def _slot_maps(action, p0, n, basis, tuples, normalized=False):
    """Star terms L and R of d_{P0} on order-n slots, for the products of ``tuples``.

    L[h, g, alpha, j] and R[g, h, alpha, j] are the slot coordinates of
    P0(h) star s and s star P0(h), s the unit symbol of slot (alpha, j), and
    g the product of a tuple (e for the empty one).  The normalized complex
    takes no h = e: those terms land on rows holding e.  Carriers are built
    once per right operand: s over phi_g for L, P0(h) over phi_h for R.
    """
    dim, order = action.dim, p0.order
    phis = {g: action.diffeo(g) for g in dict.fromkeys(action.product(t) for t in tuples)}
    units = {(alpha, j): _slot_symbol(dim, order, n, {alpha: e})
             for alpha in multi_indices(dim, n) for j, e in enumerate(basis.exprs)}
    left, right, unit_carriers = {}, {}, {}
    for (h,) in _tuples(action, 1, normalized):
        p, phi_h = p0.value((h,)), action.diffeo(h)
        p_carriers = {}
        for g, phi_g in phis.items():
            for (alpha, j), s in units.items():
                left[h, g, alpha, j] = _decompose_symbol_slot(
                    star(p, phi_h, s, phi_g, unit_carriers.setdefault((g, alpha, j), {})),
                    n, basis)
                right[g, h, alpha, j] = _decompose_symbol_slot(
                    star(s, phi_g, p, phi_h, p_carriers), n, basis)
    return left, right


def _matrix_of_twisted_d(action, maps, cols, row_index, normalized=False):
    """Matrix of d_{P0} from columns (t, alpha, j) to rows, read off ``maps``.

    On the normalized complex every tuple is e-free: h runs over G minus e,
    and the split row of t_i = h, which holds e, is skipped.
    """
    left, right = maps
    # an even-length t takes R with a minus sign: each entry is negated once
    minus_right = {}
    face_signs = (-GR_ONE, GR_ONE)   # (-1)^(i+1) by the parity of i
    splits = [(h, action.inverse(h)) for (h,) in _tuples(action, 1, normalized)]
    m = SparseMatrix(len(row_index), len(cols))
    for col, (t, alpha, j) in enumerate(cols):
        g = action.product(t)
        for h, h_inv in splits:
            for (alpha2, j2), c in left[h, g, alpha, j].items():
                m.add(row_index[((h,) + t, alpha2, j2)], col, c)
            r = right[g, h, alpha, j]
            if not len(t) % 2:
                if (g, h, alpha, j) not in minus_right:
                    minus_right[g, h, alpha, j] = {s: -c for s, c in r.items()}
                r = minus_right[g, h, alpha, j]
            for (alpha2, j2), c in r.items():
                m.add(row_index[(t + (h,), alpha2, j2)], col, c)
            for i, gi in enumerate(t):
                if normalized and gi == h:
                    continue
                split = t[:i] + (h, action.mult(h_inv, gi)) + t[i + 1:]
                m.add(row_index[(split, alpha, j)], col, face_signs[i % 2])
    return m


def _twisted_d_matrices(action, p0, n, basis, tuples, normalized):
    """Slot coordinates on each ``tuples[k]`` and the matrices of d_{P0} from
    ``tuples[k]`` to ``tuples[k + 1]``, from one set of slot maps.

    ``normalized`` (every tuple e-free, P0 unital) drops h = e from the maps
    and the entries on rows holding e from the matrices.
    """
    slots = [(alpha, j) for alpha in multi_indices(action.dim, n) for j in range(len(basis))]
    coords = [[(t, alpha, j) for t in ts for alpha, j in slots] for ts in tuples]
    maps = _slot_maps(action, p0, n, basis, [t for ts in tuples[:-1] for t in ts],
                      normalized)
    mats = [_matrix_of_twisted_d(action, maps, coords[k],
                                 {c: i for i, c in enumerate(coords[k + 1])}, normalized)
            for k in range(len(tuples) - 1)]
    return coords, mats


def _slot_cochain(action, n, basis, coords, vec, degree):
    """Order-n cochain of ``degree`` whose slot n has coordinates ``vec`` on ``coords``."""
    slots = {t: {} for t in _tuples(action, degree)}
    for (t, alpha, j), c in zip(coords, vec):
        if not c.is_zero():
            coeffs = slots[t]
            coeffs[alpha] = coeffs.get(alpha, Expr.zero()) + as_expr(c) * basis.exprs[j]
    table = {t: _slot_symbol(action.dim, n, n, coeffs) for t, coeffs in slots.items()}
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
    b = [rhs_coords[t].get((alpha, j), GaussRat(0)) for t, alpha, j in rows]

    x, residual, kernel = solve(m, b)

    rhs_is_zero = all(v.is_zero() for v in b)
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
        if p0 is None:
            p0n = trivial_system(action, n)
        else:
            p0n = Cochain(action, 1, n,
                          fn=lambda gs, k=n: _lift_leading(p0.value(gs), k))
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

