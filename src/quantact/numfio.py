"""Periodic-grid realization of the scaled-frequency operators.

Wavefunctions live on a uniform grid over the box [-L, L)^d with M points
per axis; the mode basis is e_k(x) = e^{(i/hbar) <xi_k, x>} on the frequency
lattice xi_k = (pi hbar / L) k.  ``hfft`` returns the coefficients c with
psi = sum_k c_k e_k, so an amplitude a(x, xi) acts by

    (Op(a) psi)(x) = sum_k c_k a(x, xi_k) e_k(x),

and Op(a, phi) = t_phi o Op(a o (phi x id)) with (t_phi u)(x) = u(phi^{-1}(x)).

The pullback t_phi picks the fastest faithful path: identity, exact index
permutation when phi^{-1} maps the lattice to itself, a per-slice spectral
shift when phi is a single-axis shear, and band-limited (trigonometric)
interpolation as the general fallback with a size guard.

Test functions are Gaussians decayed below 1e-14 at the box boundary, so
periodization error sits at roundoff level; ``spectral_tail_fraction``
reports the high-frequency energy share as an aliasing diagnostic.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import Expr, ExprError, Poly, as_expr, is_zero
from .opcalc import standard_star, to_operator
from .symbols import (FormalSymbol, PolyXi, taylor_from_amplitude,
                      xi_decompose)

HBAR_NAME = "hb"


# ---------------------------------------------------------------------------
# numeric expression evaluation


def eval_expr(e, env):
    """Evaluate an Expr on an environment of numpy arrays / complex scalars."""
    e = as_expr(e)
    if e.poly is not None:
        return _eval_poly(e.poly, env)
    kind = e.node[0]
    if kind == "add":
        return eval_expr(e.node[1], env) + eval_expr(e.node[2], env)
    if kind == "neg":
        return -eval_expr(e.node[1], env)
    if kind == "mul":
        return eval_expr(e.node[1], env) * eval_expr(e.node[2], env)
    if kind == "quot":
        return eval_expr(e.node[1], env) / eval_expr(e.node[2], env)
    if kind == "pow":
        return eval_expr(e.node[1], env) ** e.node[2]
    if kind == "exp":
        return np.exp(eval_expr(e.node[1], env))
    if kind == "sin":
        return np.sin(eval_expr(e.node[1], env))
    if kind == "cos":
        return np.cos(eval_expr(e.node[1], env))
    raise ExprError("cannot evaluate node %r" % kind)


def _eval_poly(poly, env):
    total = 0j
    for mono, c in poly.terms.items():
        factor = c.to_complex()
        for gen, p in mono:
            if gen[0] == "v":
                name = gen[1]
                if name not in env:
                    raise ExprError("no numeric value bound for %r" % name)
                factor = factor * np.asarray(env[name]) ** p
            else:
                arg = _eval_poly(Poly._from_key(gen[1]), env)
                factor = factor * np.exp(arg) ** p
        total = total + factor
    return total


# ---------------------------------------------------------------------------
# the grid


class WaveGrid:
    """Uniform periodic grid on [-L, L)^d with hbar-scaled frequencies."""

    def __init__(self, dim, npoints, length, hbar):
        if dim not in (1, 2):
            raise ValueError("grids are supported in one and two dimensions")
        if npoints <= 0 or npoints & (npoints - 1):
            raise ValueError("points per axis must be a power of two")
        if not (length > 0 and hbar > 0):
            raise ValueError("box half-width and hbar must be positive")
        self.dim = dim
        self.npoints = int(npoints)
        self.length = float(length)
        self.hbar = float(hbar)

    @property
    def delta(self):
        return 2.0 * self.length / self.npoints

    @property
    def shape(self):
        return (self.npoints,) * self.dim

    def axis(self):
        return -self.length + self.delta * np.arange(self.npoints)

    def mesh(self):
        axes = [self.axis()] * self.dim
        return list(np.meshgrid(*axes, indexing="ij"))

    def k_axis(self):
        return np.fft.fftfreq(self.npoints, 1.0 / self.npoints)

    def xi_axis(self):
        # frequency lattice spacing pi*hbar/L
        return (math.pi * self.hbar / self.length) * self.k_axis()

    def xi_mesh(self):
        axes = [self.xi_axis()] * self.dim
        return list(np.meshgrid(*axes, indexing="ij"))

    def coord_env(self, coords, consts=None):
        env = dict(zip(coords, self.mesh()))
        env[HBAR_NAME] = self.hbar
        if consts:
            env.update(consts)
        return env

    def _mode_signs(self):
        # e_k(x_j) = (-1)^k e^{2 pi i jk/M} per axis
        sign = np.where(np.mod(self.k_axis(), 2) == 0, 1.0, -1.0)
        out = sign
        for _ in range(self.dim - 1):
            out = np.multiply.outer(out, sign)
        return out

    def hfft(self, psi):
        """Coefficients on the e^{(i/hbar) xi_k x} mode basis."""
        psi = np.asarray(psi, dtype=complex)
        if psi.shape != self.shape:
            raise ValueError("sample shape %r does not match grid" % (psi.shape,))
        return np.fft.fftn(psi) * (self._mode_signs() / psi.size)

    def hifft(self, c):
        return np.fft.ifftn(np.asarray(c, dtype=complex) * self._mode_signs()) * c.size

    def norm(self, psi):
        return float(np.sqrt(np.sum(np.abs(psi) ** 2) * self.delta ** self.dim))


def inner(grid, f, g):
    """Discrete L^2 inner product, conjugate-linear in the first slot."""
    return complex(np.sum(np.conj(f) * g) * grid.delta ** grid.dim)


def gaussian(grid, centers=None, sigma=1.0, momenta=None):
    """Normalized Gaussian test function, decayed at the box boundary."""
    centers = centers or [0.0] * grid.dim
    momenta = momenta or [0.0] * grid.dim
    mesh = grid.mesh()
    arg = np.zeros(grid.shape)
    phase = np.zeros(grid.shape)
    for x, c, p in zip(mesh, centers, momenta):
        arg = arg + (x - c) ** 2
        phase = phase + p * x
    psi = np.exp(-arg / (2.0 * sigma ** 2)) * np.exp(1j * phase / grid.hbar)
    return psi / grid.norm(psi)


def spectral_tail_fraction(grid, psi):
    """Energy fraction in the top-octave modes: the aliasing diagnostic."""
    c = grid.hfft(psi)
    k = np.abs(grid.k_axis())
    cutoff = grid.npoints // 4
    mask = k >= cutoff
    for _ in range(grid.dim - 1):
        mask = np.logical_or.outer(mask, np.abs(grid.k_axis()) >= cutoff)
    power = np.abs(c) ** 2
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[mask]) / total)


# ---------------------------------------------------------------------------
# pullback paths


def _is_exact_zero(e):
    chk = is_zero(e)
    return chk.ok and chk.kind == "exact"


def grid_pullback(grid, phi, psi, consts=None, tol=1e-9):
    """(t_phi psi)(x) = psi(phi^{-1}(x)) on the grid.

    Paths: identity / exact index permutation / single-axis spectral shear /
    band-limited interpolation (guarded).
    """
    if phi.is_identity():
        return np.array(psi, dtype=complex)
    coords = phi.coords
    env = grid.coord_env(coords, consts)

    targets = [np.broadcast_to(np.asarray(eval_expr(g, env), dtype=complex),
                               grid.shape) for g in phi.inverse]
    if any(np.max(np.abs(t.imag)) > tol for t in targets):
        raise ValueError("map must stay real on the grid")
    reals = [t.real for t in targets]

    perm = _permutation_indices(grid, reals, tol)
    if perm is not None:
        return np.array(psi, dtype=complex)[perm]

    shear = _shear_data(grid, phi, env)
    if shear is not None:
        axis, shift = shear
        xi = grid.xi_axis()
        shape = [1] * grid.dim
        shape[axis] = grid.npoints
        phase = np.exp(-1j / grid.hbar * xi.reshape(shape) * shift)
        return np.fft.ifft(np.fft.fft(np.asarray(psi, dtype=complex), axis=axis)
                           * phase, axis=axis)

    return _bandlimited_pullback(grid, reals, psi)


def _permutation_indices(grid, reals, tol):
    idx = []
    for t in reals:
        frac = (t + grid.length) / grid.delta
        rounded = np.rint(frac)
        if np.max(np.abs(frac - rounded)) > tol:
            return None
        idx.append(np.mod(rounded.astype(np.int64), grid.npoints))
    return tuple(idx)


def _shear_data(grid, phi, env):
    """Detect phi^{-1}(x)_i = x_i - s(x_others), identity elsewhere."""
    coords = phi.coords
    sheared = None
    for i, (c, inv) in enumerate(zip(coords, phi.inverse)):
        diff = inv - Expr.var(c)
        if _is_exact_zero(diff):
            continue
        if sheared is not None:
            return None
        if not _is_exact_zero(diff.diff(c)):
            return None
        sheared = (i, diff)
    if sheared is None:
        return None
    i, diff = sheared
    shift = -np.asarray(eval_expr(diff, env), dtype=complex)
    if np.max(np.abs(shift.imag)) > 1e-12:
        return None
    return i, np.broadcast_to(shift.real, grid.shape)


def _bandlimited_pullback(grid, reals, psi, guard=2 ** 22):
    npts = grid.npoints ** grid.dim
    if npts * npts > guard:
        raise ValueError("pullback needs a structured (permutation or shear) "
                         "map at this grid size")
    c = grid.hfft(psi).reshape(-1)
    xi_flat = np.stack([m.reshape(-1) for m in grid.xi_mesh()], axis=1)
    y_flat = np.stack([t.reshape(-1) for t in reals], axis=1)
    modes = np.exp(1j / grid.hbar * (y_flat @ xi_flat.T))
    return (modes @ c).reshape(grid.shape)


# ---------------------------------------------------------------------------
# amplitudes and operator application


class NumericAmplitude:
    """Amplitude a(x, xi; hbar) as an Expr over coords + frequency names.

    The reserved constant name 'hb' is bound to the grid's hbar at
    evaluation time; additional symbolic constants come from ``consts``.
    """

    def __init__(self, expr, coords, xi_names=None, consts=None):
        self.expr = as_expr(expr)
        self.coords = list(coords)
        self.xi_names = (list(xi_names) if xi_names is not None
                         else ["xi%d" % (k + 1) for k in range(len(coords))])
        if len(self.xi_names) != len(self.coords):
            raise ValueError("need one frequency name per coordinate")
        self.consts = dict(consts or {})

    def substituted(self, mapping):
        return NumericAmplitude(self.expr.substitute(mapping), self.coords,
                                self.xi_names, self.consts)


def kn_apply(grid, amp, psi):
    """Standard quantization: (Op(a) psi)(x) = sum_k c_k a(x, xi_k) e_k(x)."""
    if grid.dim != len(amp.coords):
        raise ValueError("amplitude dimension does not match the grid")
    names = amp.expr.free_names()
    uses_x = any(c in names for c in amp.coords)
    uses_xi = any(x in names for x in amp.xi_names)
    env = grid.coord_env(amp.coords, amp.consts)

    if not uses_xi:
        values = np.broadcast_to(np.asarray(eval_expr(amp.expr, env),
                                            dtype=complex), grid.shape)
        out = values * np.asarray(psi, dtype=complex)
        _check_finite(out)
        return out

    c = grid.hfft(psi)

    if not uses_x:
        xi_env = dict(zip(amp.xi_names, grid.xi_mesh()))
        xi_env[HBAR_NAME] = grid.hbar
        xi_env.update(amp.consts)
        mult = np.broadcast_to(np.asarray(eval_expr(amp.expr, xi_env),
                                          dtype=complex), grid.shape)
        out = grid.hifft(mult * c)
        _check_finite(out)
        return out

    try:
        parts = xi_decompose(amp.expr, amp.xi_names)
    except ExprError:
        parts = None

    if parts is not None:
        xi = grid.xi_mesh()
        out = np.zeros(grid.shape, dtype=complex)
        for alpha, coeff in parts.items():
            mult = np.ones(grid.shape, dtype=complex)
            for ax, p in enumerate(alpha):
                if p:
                    mult = mult * xi[ax] ** p
            f = np.broadcast_to(np.asarray(eval_expr(coeff, env),
                                           dtype=complex), grid.shape)
            out = out + f * grid.hifft(mult * c)
        _check_finite(out)
        return out

    return _dense_kn_apply(grid, amp, c)


def _dense_kn_apply(grid, amp, c, guard=2 ** 22):
    npts = grid.npoints ** grid.dim
    if npts * npts > guard:
        raise ValueError("non-separable amplitude needs a smaller grid")
    x_flat = [m.reshape(-1) for m in grid.mesh()]
    xi_flat = [m.reshape(-1) for m in grid.xi_mesh()]
    env = {HBAR_NAME: grid.hbar}
    env.update(amp.consts)
    for name, arr in zip(amp.coords, x_flat):
        env[name] = arr[:, None]
    for name, arr in zip(amp.xi_names, xi_flat):
        env[name] = arr[None, :]
    a_mat = np.broadcast_to(np.asarray(eval_expr(amp.expr, env), dtype=complex),
                            (npts, npts))
    xg = np.stack(x_flat, axis=1)
    xig = np.stack(xi_flat, axis=1)
    modes = np.exp(1j / grid.hbar * (xg @ xig.T))
    out = ((a_mat * modes) @ c.reshape(-1)).reshape(grid.shape)
    _check_finite(out)
    return out


def _check_finite(arr):
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("operator application produced non-finite values")


def fio_apply(grid, amp, phi, psi):
    """Op(a, phi) = t_phi o Op(a o (phi x id)): quantize, then pull back."""
    mapping = dict(zip(amp.coords, phi.forward))
    moved = amp.substituted(mapping)
    u = kn_apply(grid, moved, psi)
    return grid_pullback(grid, phi, u, consts=amp.consts)


def symbol_amplitude(sym, coords, xi_names=None, consts=None):
    """True-frequency amplitude of a graded symbol.

    Slot n with frequency exponent alpha contributes
    hb^{n-|alpha|} coeff(x) xi^alpha; the filtration makes every hbar power
    nonnegative.
    """
    xi_names = (list(xi_names) if xi_names is not None
                else ["xi%d" % (k + 1) for k in range(sym.dim)])
    hb = Expr.var(HBAR_NAME)
    total = Expr.zero()
    for n, comp in enumerate(sym.comps):
        for alpha, coeff in comp.coeffs.items():
            term = coeff * hb ** (n - sum(alpha))
            for name, p in zip(xi_names, alpha):
                if p:
                    term = term * Expr.var(name) ** p
            total = total + term
    return NumericAmplitude(total, coords, xi_names, consts)


def symbol_from_polynomial(expr, coords, xi_names, order=None):
    """Graded symbol of a true-frequency polynomial amplitude.

    A monomial c(x) xi^alpha lands in slot |alpha| (the grading absorbs one
    hbar per frequency factor).
    """
    parts = xi_decompose(as_expr(expr), xi_names)
    degree = max((sum(a) for a in parts), default=0)
    order = degree if order is None else order
    dim = len(coords)
    comps = [dict() for _ in range(order + 1)]
    for alpha, coeff in parts.items():
        if sum(alpha) > order:
            raise ValueError("frequency degree exceeds the requested order")
        comps[sum(alpha)][alpha] = coeff
    return FormalSymbol(dim, order,
                        [PolyXi(dim, c) for c in comps])


def apply_operator_numeric(grid, op, psi, consts=None):
    """Evaluate a normal-form operator on grid samples.

    sum_n hbar^n sum_alpha f_alpha(x) (D^alpha psi)(phi^{-1}(x)), with the
    derivative computed spectrally and the pullback via grid_pullback.
    """
    env = grid.coord_env(op.coords, consts)
    c = grid.hfft(psi)
    omega = [m / grid.hbar for m in grid.xi_mesh()]   # hbar-free angular modes
    out = np.zeros(grid.shape, dtype=complex)
    for n, table in enumerate(op.terms):
        scale = grid.hbar ** n
        for alpha, coeff in table.items():
            mult = np.ones(grid.shape, dtype=complex)
            for ax, p in enumerate(alpha):
                if p:
                    mult = mult * omega[ax] ** p
            deriv = grid.hifft(mult * c)
            moved = grid_pullback(grid, op.phi, deriv, consts=consts)
            f = np.broadcast_to(np.asarray(eval_expr(coeff, env),
                                           dtype=complex), grid.shape)
            out = out + scale * f * moved
    return out


def phase_system_apply(grid, action, phase, g, psi, consts=None):
    """Apply T_g = Op(e^{i S_g}, phi_g) for a degree-1 phase cochain."""
    s = phase.value((g,))
    amp = NumericAmplitude(Expr.exp(Expr.imag_unit() * s), action.coords,
                           consts=consts)
    return fio_apply(grid, amp, action.diffeo(g), psi)


# ---------------------------------------------------------------------------
# residual checks


def unitarity_residual(grid, apply_fn, psis):
    """max |<T f, T g> - <f, g>| / (|f| |g|) over all test pairs."""
    images = [apply_fn(p) for p in psis]
    worst = 0.0
    for i, f in enumerate(psis):
        for j, g in enumerate(psis):
            base = inner(grid, f, g)
            after = inner(grid, images[i], images[j])
            scale = grid.norm(f) * grid.norm(g)
            worst = max(worst, abs(after - base) / scale)
    return worst


def representation_residual(grid, apply_for, mult, pairs, psis):
    """max relative L^2 error of T_{g1} T_{g2} psi - T_{g1 g2} psi."""
    worst = 0.0
    for g1, g2 in pairs:
        g12 = mult(g1, g2)
        for psi in psis:
            two_step = apply_for(g1, apply_for(g2, psi))
            one_step = apply_for(g12, psi)
            worst = max(worst, grid.norm(two_step - one_step) / grid.norm(psi))
    return worst


def standard_product_residual(grid, a, b, psi):
    """Relative error of Op(a)Op(b)psi - Op(a*b)psi for polynomial symbols.

    The product symbol is computed by the exact graded calculus through the
    frequency-rescaling bridge; the left side composes two independent grid
    quadratures.
    """
    composed = kn_apply(grid, a, kn_apply(grid, b, psi))
    a_names = a.expr.free_names()
    b_names = b.expr.free_names()
    # when a is frequency-free or b is position-free every correction term
    # of the product vanishes identically, so the product symbol is the
    # pointwise product; this also covers non-polynomial multipliers
    if (not any(x in a_names for x in a.xi_names)
            or not any(c in b_names for c in b.coords)):
        consts = dict(b.consts)
        consts.update(a.consts)
        prod = NumericAmplitude(a.expr * b.expr, a.coords, a.xi_names, consts)
        direct = kn_apply(grid, prod, psi)
        return grid.norm(composed - direct) / grid.norm(psi)
    sa = symbol_from_polynomial(a.expr, a.coords, a.xi_names)
    sb = symbol_from_polynomial(b.expr, b.coords, b.xi_names)
    order = sa.order + sb.order
    sa = _pad_order(sa, order)
    sb = _pad_order(sb, order)
    prod = standard_star(sa, sb, a.coords)
    amp = symbol_amplitude(prod, a.coords, a.xi_names, a.consts)
    direct = kn_apply(grid, amp, psi)
    return grid.norm(composed - direct) / grid.norm(psi)


def _pad_order(sym, order):
    if sym.order >= order:
        return sym
    comps = [PolyXi(sym.dim, dict(c.coeffs)) for c in sym.comps]
    comps += [PolyXi.zero(sym.dim) for _ in range(order - sym.order)]
    return FormalSymbol(sym.dim, order, comps)


# ---------------------------------------------------------------------------
# asymptotic consistency


class SlopeFit:
    def __init__(self, status, errors, slope=None, spread=None):
        self.status = status        # "exact" or "fitted"
        self.errors = errors
        self.slope = slope
        self.spread = spread


def asymptotic_consistency(dim, npoints, length, amp_series, phi, psi_fn,
                           hbars, truncation, convention="multi", consts=None,
                           exact_floor=1e-12, spread_limit=0.2):
    """Measured convergence order of the formal truncation against fio_apply.

    The full amplitude sum_k hb^k a^k is applied through the grid FIO; the
    order-N truncation of its graded expansion is applied through the
    normal-form evaluator; the relative error is fitted log-log against
    hbar.  A fit whose residual spread exceeds ``spread_limit`` is rejected.
    """
    coords = list(phi.coords)
    hb = Expr.var(HBAR_NAME)
    total = Expr.zero()
    for k, term in enumerate(amp_series.terms):
        total = total + hb ** k * term

    sym = None
    errors = []
    for hbar in hbars:
        grid = WaveGrid(dim, npoints, length, hbar)
        psi = psi_fn(grid)
        amp = NumericAmplitude(total, coords, amp_series.xi_names, consts)
        full = fio_apply(grid, amp, phi, psi)
        if sym is None:
            sym = taylor_from_amplitude(amp_series, truncation, convention)
            op = to_operator(sym, phi, coords)
        formal = apply_operator_numeric(grid, op, psi, consts=consts)
        errors.append(grid.norm(full - formal) / grid.norm(psi))

    if max(errors) <= exact_floor:
        return SlopeFit("exact", errors)
    logs_h = np.log(np.asarray(hbars, dtype=float))
    logs_e = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    spread = float(np.max(np.abs(logs_e - (slope * logs_h + intercept))))
    if spread > spread_limit:
        raise ValueError("slope fit rejected: residual spread %.3f" % spread)
    return SlopeFit("fitted", errors, slope=float(slope), spread=spread)
