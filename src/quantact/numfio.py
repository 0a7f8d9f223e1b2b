"""Periodic-grid realization of the scaled-frequency operators.

Wavefunctions live on a uniform grid over the box [-L, L)^d with M points
per axis; the mode basis is e_k(x) = e^{(i/hbar) <xi_k, x>} on the frequency
lattice xi_k = (pi hbar / L) k.  ``hfft`` returns the coefficients c with
psi = sum_k c_k e_k, so an amplitude a(x, xi) acts by

    (Op(a) psi)(x) = sum_k c_k a(x, xi_k) e_k(x),

and Op(a, phi) = t_phi o Op(a o (phi x id)) with (t_phi u)(x) = u(phi^{-1}(x)).

Each operator is split into a plan and its application.  A plan is built
once from (grid, phi, amplitude): it evaluates the amplitude on the grid,
refusing a non-finite value, and classifies the pullback t_phi into its
fastest faithful path -- identity, exact index permutation when phi^{-1}
maps the lattice to itself, a per-slice spectral shift when phi is a
single-axis shear, and band-limited (trigonometric) interpolation as the
general fallback with a size guard.  An inverse with exact affine data
x -> A x + b is classified from A and b, with no grid-wide test; any other
map from its values on the grid.  Applying the plan to a packet is then
FFTs and pointwise products only.  ``pullback_plan``, ``kn_plan``,
``fio_plan`` and ``phase_system_plan`` build plans; ``grid_pullback``,
``kn_apply``, ``fio_apply`` and ``phase_system_apply`` build one and apply it once.
Plans hold arrays of the grid's shape only: the dense mode matrices of the
band-limited paths are rebuilt on every application.  ``fio_plan`` pulls
back in place on the array its quantization returns, and a residual
subtracts and squares in place.

``overlap`` runs independent grid work beside the caller on one worker
thread, none when CPU affinity allows one CPU, with no option; each result
lands in its place, so reports do not depend on the thread.  ``fio_plan``
classifies the pullback beside the amplitude's evaluation,
``representation_residual`` applies T_{g1 g2} beside T_{g1}, and
verify-numeric overlaps packets, element plans and images.  A plan built on
the worker may fill caches the caller reads too: a ``Diffeo``'s monomial
images and cached properties, a ``Poly``'s key and hash, and ``expr``'s name
registry (under its lock).  Each entry is computed from the same exact
input, so concurrent stores are of equal values and idempotent.

Test functions are Gaussians decayed below 1e-14 at the box boundary, so
periodization error sits at roundoff level; ``spectral_tail_fraction``
reports the high-frequency energy share as an aliasing diagnostic.
"""

from __future__ import annotations

import _queue
import contextvars
import functools
import math
import os
import threading

import numpy as np

from .expr import Expr, ExprError, GaussRat, as_expr
from .opcalc import FormalOperator, standard_star
from .symbols import (FormalSymbol, PolyXi, default_xi_names, monomial,
                      taylor_from_amplitude, xi_decompose)

HBAR_NAME = "hb"
# tolerance for a pulled-back grid point to count as real and on the lattice
GRID_TOL = 1e-9
# largest (grid points)^2 for which a dense mode matrix may be built
DENSE_GUARD = 2 ** 22


class NonFiniteError(ValueError):
    """An amplitude or an operator's output is infinite or NaN on the grid."""


class NonFiniteMapError(NonFiniteError):
    """A map phi or its inverse is infinite, NaN or complex on the grid."""


class DenseGridError(ValueError):
    """A path that needs a dense mode matrix on a grid past DENSE_GUARD."""


# ---------------------------------------------------------------------------
# one worker thread beside the caller

# one worker, none on one CPU: every allocating thread keeps its own malloc
# arena, and the grid work here comes in independent pairs
WORKERS = min(1, len(os.sched_getaffinity(0)) - 1)
_JOBS = _queue.SimpleQueue()       # the worker's queue, drained by callers too
_START = threading.Lock()
_worker = None


def _run(job):
    context, call, done = job
    try:
        done.put((True, context.run(call)))
    except BaseException as exc:   # raised again in the thread that waits for it
        done.put((False, exc))


def _serve():
    while True:
        _run(_JOBS.get())


def overlap(calls):
    """The results of the zero-argument ``calls``, in order, computed beside
    the caller: the caller runs the first call and every call the worker has
    not yet taken.  Each call runs in a copy of the caller's context, so an
    ``np.errstate`` reaches it.  Every call ends before the first error in
    call order is raised.  With no worker, or from the worker itself, all run
    here in order, so a call may overlap calls of its own."""
    global _worker
    here = WORKERS == 0 or threading.current_thread() is _worker
    if not here and _worker is None:
        with _START:
            if _worker is None:
                _worker = threading.Thread(target=_serve, name="numfio", daemon=True)
                _worker.start()
    jobs = [(contextvars.copy_context(), call, _queue.SimpleQueue()) for call in calls]
    queue = _queue.SimpleQueue() if here else _JOBS
    for job in jobs[1:]:
        queue.put(job)
    for job in jobs[:1]:        # the first call here, then those not yet taken
        _run(job)
    while True:
        try:
            job = queue.get_nowait()
        except _queue.Empty:
            break
        _run(job)
    results = [done.get() for _, _, done in jobs]
    for ok, value in results:
        if not ok:
            raise value
    return [value for _, value in results]


# ---------------------------------------------------------------------------
# numeric expression evaluation


def eval_expr(e, env):
    """Evaluate an Expr on an environment of numpy arrays / complex scalars."""
    def var(name):
        if name not in env:
            raise ExprError("no numeric value bound for %r" % name)
        return np.asarray(env[name])
    return as_expr(e).fold(lambda poly: poly.fold(0j, GaussRat.to_complex, var, np.exp), np)


def _grid_values(e, env, shape):
    """Values of e on env as a complex array of the given shape."""
    return np.broadcast_to(np.asarray(eval_expr(e, env), dtype=complex), shape)


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

    def mesh(self, sparse=False):
        """Coordinate arrays on the grid; an open mesh when ``sparse``."""
        return list(np.meshgrid(*[self.axis()] * self.dim, indexing="ij", sparse=sparse))

    def k_axis(self):
        return np.fft.fftfreq(self.npoints, 1.0 / self.npoints)

    def xi_axis(self):
        # frequency lattice spacing pi*hbar/L
        return (math.pi * self.hbar / self.length) * self.k_axis()

    def xi_mesh(self):
        return list(np.meshgrid(*[self.xi_axis()] * self.dim, indexing="ij"))

    def coord_env(self, coords, consts=None):
        """Coordinate arrays as an open mesh (each varies along its own axis
        only), so a term in one coordinate costs O(M), not O(M^d)."""
        env = dict(zip(coords, self.mesh(sparse=True)))
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
        power = np.abs(psi)
        power *= power       # |psi|^2 in place, bit for bit ** 2
        return float(np.sqrt(np.sum(power) * self.delta ** self.dim))


def inner(grid, f, g):
    """Discrete L^2 inner product, conjugate-linear in the first slot."""
    return complex(np.sum(np.conj(f) * g) * grid.delta ** grid.dim)


def gaussian(grid, centers=None, sigma=1.0, momenta=None):
    """Normalized Gaussian test function, decayed at the box boundary; the
    open mesh adds into the grid arrays in place, bit for bit the dense sums."""
    centers = centers or [0.0] * grid.dim
    momenta = momenta or [0.0] * grid.dim
    mesh = grid.mesh(sparse=True)
    arg = np.zeros(grid.shape)
    phase = np.zeros(grid.shape)
    for x, c, p in zip(mesh, centers, momenta):
        arg += (x - c) ** 2
        phase += p * x
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


def pullback_plan(grid, phi, consts=None):
    """Classify t_phi once; return psi -> (t_phi psi)(x) = psi(phi^{-1}(x)).

    Paths: identity / exact index permutation / single-axis spectral shear /
    band-limited interpolation (guarded).  A map with exact affine data
    (A, b) of phi^{-1} (``Diffeo.inverse_affine``) is real, and only an
    integral A can permute the lattice, with one offset per axis to test;
    any other map must stay real on the grid and is tested at every point.

    The applier leaves psi as it is.  Its ``in_place`` attribute is the same
    map on a complex array of the grid's shape that the caller gives up: it
    may overwrite that array and return it.
    """
    if phi.is_identity():
        return _on_a_copy(lambda psi: psi)
    env = grid.coord_env(phi.coords, consts)
    affine = phi.inverse_affine
    reals = rows = fracs = None
    if affine is None:
        reals = _real_targets(grid, phi.inverse, env)
        fracs = [(t + grid.length) / grid.delta for t in reals]
    elif all(c.denominator == 1 for row in affine[0] for c in row):
        rows = [[int(c) for c in row] for row in affine[0]]
        fracs = [(float(s) + grid.length * (1 - sum(row))) / grid.delta
                 for row, s in zip(rows, affine[1])]
    perm = None if fracs is None else _permutation_indices(grid, fracs, rows)
    if perm is not None:
        return _on_a_copy(lambda psi: psi[perm])

    shear = _shear_data(grid, phi, env)
    if shear is not None:
        axis, shift = shear
        xi = grid.xi_axis()
        shape = [1] * grid.dim
        shape[axis] = grid.npoints
        phase = -1j / grid.hbar * xi.reshape(shape) * shift
        np.exp(phase, out=phase)

        def sheared(psi):
            # in place, no second buffer: fft's out= needs numpy >= 2.0
            np.fft.fft(psi, axis=axis, out=psi)
            psi *= phase
            return np.fft.ifft(psi, axis=axis, out=psi)
        return _on_a_copy(sheared)

    _check_dense(grid, "pullback needs a structured (permutation or shear) map "
                 "at this grid size")
    if reals is None:
        reals = _real_targets(grid, phi.inverse, env)
    return _on_a_copy(lambda psi: _bandlimited_pullback(grid, reals, psi))


def _on_a_copy(pull):
    """A ``pullback_plan`` applier: ``pull`` on a complex copy of psi, and
    ``pull`` itself as its ``in_place`` attribute."""
    def apply(psi):
        return pull(np.array(psi, dtype=complex))
    apply.in_place = pull
    return apply


def grid_pullback(grid, phi, psi, consts=None):
    """(t_phi psi)(x) = psi(phi^{-1}(x)) on the grid: one application of
    ``pullback_plan``."""
    return pullback_plan(grid, phi, consts)(psi)


def _real_targets(grid, components, env):
    """A map's ``components`` on the full grid, one real array per axis; a pole,
    an overflow or a complex value raises NonFiniteMapError, with no warning."""
    with np.errstate(all="ignore"):
        targets = [_check_finite(_grid_values(g, env, grid.shape),
                                 "map is not finite on the grid", NonFiniteMapError)
                   for g in components]
    if any(np.max(np.abs(t.imag)) > GRID_TOL for t in targets):
        raise NonFiniteMapError("map must stay real on the grid")
    return [t.real for t in targets]


def _permutation_indices(grid, fracs, rows=None):
    """Gather indices when phi^{-1} takes the lattice to itself, else None.
    ``fracs`` holds per axis the lattice positions (t + L)/delta of phi^{-1}
    on the grid or, given the rows of an integral A, the offset in index j ->
    A j + (b + L(1 - A 1))/delta, from which aranges give the indices."""
    idx = []
    for frac in fracs:
        rounded = np.rint(frac)
        # a NaN offset fails the test rather than pass it
        if not np.max(np.abs(frac - rounded)) <= GRID_TOL:
            return None
        idx.append(np.mod(rounded.astype(np.int64), grid.npoints))
    if rows is not None:
        js = np.meshgrid(*[np.arange(grid.npoints)] * grid.dim, indexing="ij",
                         sparse=True)
        idx = [np.broadcast_to(np.mod(k + sum(a * j for a, j in zip(row, js)),
                                      grid.npoints), grid.shape)
               for row, k in zip(rows, idx)]
    return tuple(idx)


def _shear_data(grid, phi, env):
    """Detect phi^{-1}(x)_i = x_i - s(x_others), identity elsewhere; s is
    evaluated on the open mesh ``env``."""
    coords = phi.coords
    sheared = None
    for i, (c, inv) in enumerate(zip(coords, phi.inverse)):
        diff = inv - Expr.var(c)
        if diff.is_exact_zero():
            continue
        if sheared is not None:
            return None
        if not diff.diff(c).is_exact_zero():
            return None
        sheared = (i, diff)
    if sheared is None:
        return None
    i, diff = sheared
    shift = np.asarray(eval_expr(diff, env), dtype=complex)
    if np.max(np.abs(shift.imag)) > 1e-12:
        return None
    return i, -shift.real


def _bandlimited_pullback(grid, reals, psi):
    modes = _dense_modes(grid, reals)
    return (modes @ grid.hfft(psi).reshape(-1)).reshape(grid.shape)


def _check_dense(grid, message):
    """DenseGridError(message) when a dense mode matrix would pass DENSE_GUARD entries."""
    npts = grid.npoints ** grid.dim
    if npts * npts > DENSE_GUARD:
        raise DenseGridError(message)


def _dense_modes(grid, points):
    """e^{(i/hbar) <y_j, xi_k>} over sample points y (one array per axis) and
    the frequency lattice; the plan that calls it has passed _check_dense."""
    y_flat = np.stack([t.reshape(-1) for t in points], axis=1)
    xi_flat = np.stack([m.reshape(-1) for m in grid.xi_mesh()], axis=1)
    return np.exp(1j / grid.hbar * (y_flat @ xi_flat.T))


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
                         else default_xi_names(len(coords)))
        if len(self.xi_names) != len(self.coords):
            raise ValueError("need one frequency name per coordinate")
        self.consts = dict(consts or {})

    def substituted(self, mapping):
        """a o mapping; a composite dividing by a symbolic zero is finite nowhere."""
        try:
            expr = self.expr.substitute(mapping)
        except ZeroDivisionError:
            raise NonFiniteError("amplitude is not finite on the grid") from None
        return NumericAmplitude(expr, self.coords, self.xi_names, self.consts)


def kn_plan(grid, amp):
    """Evaluate a once on the grid; return psi -> (Op(a) psi)(x) =
    sum_k c_k a(x, xi_k) e_k(x)."""
    if grid.dim != len(amp.coords):
        raise ValueError("amplitude dimension does not match the grid")
    names = amp.expr.free_names()
    uses_x = any(c in names for c in amp.coords)
    uses_xi = any(x in names for x in amp.xi_names)
    env = grid.coord_env(amp.coords, amp.consts)

    if not uses_xi:
        values = _amplitude_values(amp.expr, env, grid.shape)
        return lambda psi: _check_finite(values * np.asarray(psi, dtype=complex))

    if not uses_x:
        xi_env = dict(zip(amp.xi_names, grid.xi_mesh()))
        xi_env[HBAR_NAME] = grid.hbar
        xi_env.update(amp.consts)
        values = _amplitude_values(amp.expr, xi_env, grid.shape)
        return lambda psi: _check_finite(grid.hifft(values * grid.hfft(psi)))

    try:
        parts = xi_decompose(amp.expr, amp.xi_names)
    except ExprError:
        _check_dense(grid, "non-separable amplitude needs a smaller grid")
        return lambda psi: _dense_kn_apply(grid, amp, grid.hfft(psi))
    xi = grid.xi_mesh()
    terms = [(_monomial_values(grid, xi, alpha), _amplitude_values(coeff, env, grid.shape))
             for alpha, coeff in parts.items()]

    def apply(psi):
        c = grid.hfft(psi)
        out = np.zeros(grid.shape, dtype=complex)
        for mult, f in terms:
            out = out + f * grid.hifft(mult * c)
        return _check_finite(out)

    return apply


def kn_apply(grid, amp, psi):
    """Standard quantization Op(a) psi: one application of ``kn_plan``."""
    return kn_plan(grid, amp)(psi)


def _monomial_values(grid, axes, alpha):
    """prod_ax axes[ax]^alpha[ax] on the grid, a complex array."""
    mult = np.ones(grid.shape, dtype=complex)
    for ax, p in enumerate(alpha):
        if p:
            mult = mult * axes[ax] ** p
    return mult


def _dense_kn_apply(grid, amp, c):
    mesh = grid.mesh()
    modes = _dense_modes(grid, mesh)
    env = {HBAR_NAME: grid.hbar}
    env.update(amp.consts)
    for name, arr in zip(amp.coords, mesh):
        env[name] = arr.reshape(-1)[:, None]
    for name, arr in zip(amp.xi_names, grid.xi_mesh()):
        env[name] = arr.reshape(-1)[None, :]
    a_mat = _grid_values(amp.expr, env, modes.shape)
    return _check_finite(((a_mat * modes) @ c.reshape(-1)).reshape(grid.shape))


def _amplitude_values(e, env, shape):
    """Amplitude values on the grid, checked when the plan is built: a pole or
    an overflow raises NonFiniteError, with no numpy warning."""
    with np.errstate(all="ignore"):
        values = np.asarray(eval_expr(e, env), dtype=complex)
    return np.broadcast_to(_check_finite(values, "amplitude is not finite on the grid"),
                           shape)


def _check_finite(arr, message="operator application produced non-finite values",
                  error=NonFiniteError):
    # one pass over the float view: a complex value is finite when both parts are
    if not np.isfinite(np.ascontiguousarray(arr).view(float)).all():
        raise error(message)
    return arr


def fio_plan(grid, amp, phi):
    """Op(a, phi) = t_phi o Op(a o (phi x id)): quantize, then pull back in
    place on the fresh array the quantization returns.  The pullback is
    classified beside the amplitude's evaluation; when a o (phi x id) is not
    finite, the map is checked before a is blamed."""
    def quantize_plan():
        try:
            return kn_plan(grid, amp.substituted(dict(zip(amp.coords, phi.forward))))
        except NonFiniteError:
            _real_targets(grid, phi.forward + phi.inverse,
                          grid.coord_env(phi.coords, amp.consts))
            raise

    quantize, pull = overlap([quantize_plan,
                              lambda: pullback_plan(grid, phi, consts=amp.consts).in_place])
    return lambda psi: pull(quantize(psi))


def fio_apply(grid, amp, phi, psi):
    """Op(a, phi) psi: one application of ``fio_plan``."""
    return fio_plan(grid, amp, phi)(psi)


def symbol_amplitude(sym, coords, xi_names=None, consts=None):
    """True-frequency amplitude of a graded symbol.

    Slot n with frequency exponent alpha contributes
    hb^{n-|alpha|} coeff(x) xi^alpha; the filtration makes every hbar power
    nonnegative.
    """
    xi_names = list(xi_names) if xi_names is not None else default_xi_names(sym.dim)
    hb = Expr.var(HBAR_NAME)
    total = Expr.zero()
    for n, comp in enumerate(sym.comps):
        for alpha, coeff in comp.coeffs.items():
            total = total + coeff * hb ** (n - sum(alpha)) * monomial(xi_names, alpha)
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
    derivative computed spectrally and one pullback plan for every term.
    """
    env = grid.coord_env(op.coords, consts)
    pull = pullback_plan(grid, op.phi, consts)
    c = grid.hfft(psi)
    omega = [m / grid.hbar for m in grid.xi_mesh()]   # hbar-free angular modes
    out = np.zeros(grid.shape, dtype=complex)
    for n, table in enumerate(op.terms):
        scale = grid.hbar ** n
        for alpha, coeff in table.items():
            deriv = grid.hifft(_monomial_values(grid, omega, alpha) * c)
            moved = pull(deriv)
            f = _grid_values(coeff, env, grid.shape)
            out = out + scale * f * moved
    return out


def phase_system_plan(grid, action, phase, g, consts=None):
    """Plan of T_g = Op(e^{i S_g}, phi_g) for a degree-1 phase cochain."""
    s = phase.value((g,))
    amp = NumericAmplitude(Expr.exp(Expr.imag_unit() * s), action.coords,
                           consts=consts)
    return fio_plan(grid, amp, action.diffeo(g))


def phase_system_apply(grid, action, phase, g, psi, consts=None):
    """Apply T_g once: one application of ``phase_system_plan``."""
    return phase_system_plan(grid, action, phase, g, consts)(psi)


# ---------------------------------------------------------------------------
# residual checks


def packet_gram(grid, psis):
    """(norms |psi_i|, Gram matrix <psi_i, psi_j>) of the test packets: what
    every residual below compares against, computed once per packet set."""
    return ([grid.norm(p) for p in psis],
            [[inner(grid, f, g) for g in psis] for f in psis])


def unitarity_residual(grid, images, norms, gram):
    """max |<T f_i, T f_j> - <f_i, f_j>| / (|f_i| |f_j|) over all test pairs,
    from the images T f_i and the packets' ``packet_gram``.  A NaN is kept
    (``np.maximum``, where ``max`` would drop it), so it fails every bound."""
    worst = 0.0
    for i, f in enumerate(images):
        for j, g in enumerate(images):
            after = inner(grid, f, g)
            worst = np.maximum(worst, abs(after - gram[i][j]) / (norms[i] * norms[j]))
    return float(worst)


def representation_residual(grid, outer, product, images, psis, norms):
    """max relative L^2 error of T_{g1} T_{g2} psi - T_{g1 g2} psi over the
    packets psi, from the images T_{g2} psi, the operators ``outer`` = T_{g1}
    and ``product`` = T_{g1 g2}, and the packet norms; a NaN is kept.  Both
    operators return fresh arrays, as plans do: T_{g1 g2} psi is computed
    beside T_{g1} T_{g2} psi and then overwritten by the difference."""
    def difference(image, psi):
        diff, moved = overlap([functools.partial(product, psi),
                               functools.partial(outer, image)])
        return np.subtract(moved, diff, out=diff)

    worst = 0.0
    for image, psi, norm in zip(images, psis, norms):
        worst = np.maximum(worst, grid.norm(difference(image, psi)) / norm)
    return float(worst)


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
                           hbars, truncation, convention="multi", consts=None):
    """Measured convergence order of the formal truncation against fio_apply.

    The full amplitude sum_k hb^k a^k is applied through the grid FIO; the
    order-N truncation of its graded expansion is applied through the
    normal-form evaluator; the relative error is fitted log-log against
    hbar.  Errors all at most 1e-9 make the status "exact"; a fit whose
    residual spread exceeds 0.2 is rejected.
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
            op = FormalOperator(sym, phi)
        formal = apply_operator_numeric(grid, op, psi, consts=consts)
        errors.append(grid.norm(full - formal) / grid.norm(psi))

    if max(errors) <= 1e-9:
        return SlopeFit("exact", errors)
    logs_h = np.log(np.asarray(hbars, dtype=float))
    logs_e = np.log(np.asarray(errors, dtype=float))
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    spread = float(np.max(np.abs(logs_e - (slope * logs_h + intercept))))
    if spread > 0.2:
        raise ValueError("slope fit rejected: residual spread %.3f" % spread)
    return SlopeFit("fitted", errors, slope=float(slope), spread=spread)
