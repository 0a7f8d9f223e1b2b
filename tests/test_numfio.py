"""Grid checks for the oscillatory-integral machinery.

Oracles are analytic: Gaussian derivatives in closed form, translations as
exact index rolls, multiplier amplitudes acting as closed-form shifts, and
the symbolic operator calculus cross-checked against grid quadrature.
"""

import math
import os
import random
import subprocess
import sys
import threading
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import quantact
from quantact import numfio
from quantact.actions import (BUILTIN_ACTIONS, Diffeo, cyclic_rotations,
                              galilean_boosts, translations)
from quantact.dga import PhaseCochain
from quantact.expr import Expr, is_zero
from quantact.numfio import (GRID_TOL, NumericAmplitude, WaveGrid,
                             _bandlimited_pullback, _check_dense, _grid_values,
                             apply_operator_numeric,
                             asymptotic_consistency, eval_expr, fio_apply,
                             gaussian, grid_pullback, inner, kn_apply, kn_plan,
                             packet_gram, phase_system_apply, pullback_plan,
                             representation_residual, spectral_tail_fraction,
                             standard_product_residual, symbol_amplitude,
                             symbol_from_polynomial, unitarity_residual)
from quantact.opcalc import FormalOperator
from quantact.symbols import AmplitudeSeries, FormalSymbol, PolyXi

X1 = Expr.var("x1")
XI1 = Expr.var("xi1")
HB = Expr.var("hb")
I = Expr.imag_unit()


def grid_1d(hbar=0.1, npoints=128, length=8.0):
    return WaveGrid(1, npoints, length, hbar)


def rel_err(grid, got, want):
    return grid.norm(np.asarray(got) - np.asarray(want)) / grid.norm(want)


# ---------------------------------------------------------------------------
# expression evaluation on arrays


def _node_kinds(e):
    """Tree node kinds in e, plus "exp-atom" for a canonical part with an exp atom."""
    if e.is_canonical:
        return {"exp-atom"} if "exp(" in str(e) else set()
    kinds = {e.node[0]}
    for child in e.node[1:]:
        if isinstance(child, Expr):
            kinds |= _node_kinds(child)
    return kinds


def every_node_kind_tree(rng):
    """A seeded tree in x, y holding every node kind and an exp atom."""
    def coeff():
        return Expr.rational(rng.randint(-9, 9), rng.randint(1, 5))

    x, y = Expr.var("x"), Expr.var("y")
    q = (coeff() * x + coeff() * y) / (2 + x * x + y * y)
    atom = Expr.exp(Expr.imag_unit() * coeff() * x * y + coeff() * y)
    e = (Expr.exp(q) * Expr.sin(q) - Expr.cos(coeff() * q)) ** 3 + atom * q
    assert _node_kinds(e) == {"add", "neg", "mul", "quot", "pow", "exp",
                              "exp-atom"}
    return e


def test_eval_expr_matches_expr_eval_on_every_node_kind():
    rng = random.Random(17)
    e = every_node_kind_tree(rng)
    points = [(Fraction(rng.randint(-40, 40), rng.randint(1, 20)),
               Fraction(rng.randint(-40, 40), rng.randint(1, 20))) for _ in range(50)]
    xs = np.array([float(a) for a, _ in points])
    ys = np.array([float(b) for _, b in points])
    grid_values = eval_expr(e, {"x": xs, "y": ys})
    for (a, b), got in zip(points, grid_values):
        want = e.eval({"x": a, "y": b})
        assert abs(got - want) <= 1e-12 * abs(want)


def test_open_mesh_values_equal_dense_mesh_values():
    # the coordinate environment is an open mesh; evaluation is element-wise,
    # so broadcasting gives the dense-mesh floats bit for bit
    e = every_node_kind_tree(random.Random(17))
    grid = WaveGrid(2, 32, 4.0, 0.1)
    env = grid.coord_env(["x", "y"])
    assert [a.shape for a in (env["x"], env["y"])] == [(32, 1), (1, 32)]
    dense = dict(zip(["x", "y"], grid.mesh()), hb=grid.hbar)
    got = _grid_values(e, env, grid.shape)
    assert got.shape == grid.shape
    assert np.array_equal(got, _grid_values(e, dense, grid.shape))


@pytest.mark.parametrize("dim,points,centers,momenta", [
    (1, 64, [0.5], [0.2]),
    (2, 256, [0.5, -0.3], [0.2, -1.5]),
    (2, 32, None, None),
])
def test_gaussian_on_the_open_mesh_equals_the_dense_formula(dim, points, centers, momenta):
    # each grid value is the same sum of the same per-axis terms, so the
    # packet is bit-identical to the one built on the dense mesh
    grid, sigma = WaveGrid(dim, points, 6.0, 0.1), 0.8
    arg, phase = np.zeros(grid.shape), np.zeros(grid.shape)
    for x, c, p in zip(grid.mesh(), centers or [0.0] * dim, momenta or [0.0] * dim):
        arg = arg + (x - c) ** 2
        phase = phase + p * x
    psi = np.exp(-arg / (2.0 * sigma ** 2)) * np.exp(1j * phase / grid.hbar)
    want = psi / grid.norm(psi)
    got = gaussian(grid, centers, sigma, momenta)
    assert got.shape == want.shape == grid.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# grid and transform basics


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        WaveGrid(3, 32, 4.0, 0.1)
    with pytest.raises(ValueError):
        WaveGrid(1, 60, 4.0, 0.1)
    with pytest.raises(ValueError):
        WaveGrid(1, 32, -4.0, 0.1)
    with pytest.raises(ValueError):
        WaveGrid(1, 32, 4.0, 0.0)


def test_mode_roundtrip_and_parseval():
    grid = grid_1d()
    psi = gaussian(grid, centers=[0.5], sigma=0.8, momenta=[0.2])
    c = grid.hfft(psi)
    back = grid.hifft(c)
    assert rel_err(grid, back, psi) < 1e-13
    # sum_k |c_k|^2 (2L)^d equals the squared grid norm
    lhs = float(np.sum(np.abs(c) ** 2)) * (2.0 * grid.length) ** grid.dim
    assert abs(lhs - grid.norm(psi) ** 2) < 1e-12


def test_single_mode_has_unit_coefficient():
    grid = grid_1d(npoints=64)
    for k in (0, 3, 64 - 5):
        xi_k = grid.xi_axis()[k]
        psi = np.exp(1j * xi_k * grid.axis() / grid.hbar)
        c = grid.hfft(psi)
        want = np.zeros(64, dtype=complex)
        want[k] = 1.0
        assert np.max(np.abs(c - want)) < 1e-12


def test_spectral_tail_fraction_flags_rough_data():
    grid = grid_1d(npoints=64)
    smooth = gaussian(grid, sigma=1.0)
    assert spectral_tail_fraction(grid, smooth) < 1e-12
    rough = np.cos(np.pi * np.arange(64))  # alternating +-1: the top mode
    assert spectral_tail_fraction(grid, rough) > 0.9


# ---------------------------------------------------------------------------
# quantization of amplitudes


def test_constant_amplitude_is_pointwise_scaling():
    grid = grid_1d()
    psi = gaussian(grid, sigma=0.9)
    one = NumericAmplitude(Expr.one(), ["x1"])
    two = NumericAmplitude(2, ["x1"])
    assert np.max(np.abs(kn_apply(grid, one, psi) - psi)) == 0.0
    assert np.max(np.abs(kn_apply(grid, two, psi) - 2.0 * psi)) == 0.0


def test_exponential_multiplier_is_exact_shift():
    # a = e^{i c xi / hb} moves the state by c; c a lattice multiple makes
    # the action an exact index roll
    grid = grid_1d()
    psi = gaussian(grid, centers=[-0.5], sigma=0.8, momenta=[0.3])
    shift = 2.0
    cells = int(round(shift / grid.delta))
    assert cells * grid.delta == shift
    amp = NumericAmplitude(Expr.exp(I * XI1 * Expr.integer(2) / HB), ["x1"])
    got = kn_apply(grid, amp, psi)
    want = np.roll(psi, -cells)
    assert rel_err(grid, got, want) < 1e-12


def test_frequency_symbol_is_scaled_derivative():
    grid = grid_1d()
    c0, sigma, p = 0.5, 0.9, 0.3
    psi = gaussian(grid, centers=[c0], sigma=sigma, momenta=[p])
    x = grid.axis()
    # hb D psi = (p + i hb (x - c)/sigma^2) psi for the Gaussian wave packet
    want = (p + 1j * grid.hbar * (x - c0) / sigma ** 2) * psi
    got = kn_apply(grid, NumericAmplitude(XI1, ["x1"]), psi)
    assert rel_err(grid, got, want) < 1e-10


def test_mixed_symbol_separable_and_dense_paths_agree():
    grid = grid_1d(npoints=64)
    c0, sigma, p = 0.0, 0.9, 0.2
    psi = gaussian(grid, centers=[c0], sigma=sigma, momenta=[p])
    x = grid.axis()
    amp = NumericAmplitude(X1 * XI1 + X1 * X1, ["x1"])
    got = kn_apply(grid, amp, psi)
    want = x * (p + 1j * grid.hbar * (x - c0) / sigma ** 2) * psi + x ** 2 * psi
    assert rel_err(grid, got, want) < 1e-10

    from quantact.numfio import _dense_kn_apply
    dense = _dense_kn_apply(grid, amp, grid.hfft(psi))
    assert rel_err(grid, dense, got) < 1e-10


def test_nonpolynomial_amplitude_matches_direct_mode_sum():
    grid = grid_1d(hbar=0.2, npoints=32, length=4.0)
    psi = gaussian(grid, sigma=0.7, momenta=[0.1])
    amp = NumericAmplitude(Expr.exp(I * X1 * XI1), ["x1"])
    got = kn_apply(grid, amp, psi)
    c = grid.hfft(psi)
    x, xi = grid.axis(), grid.xi_axis()
    want = np.exp(1j * np.outer(x, xi) * (1.0 + 1.0 / grid.hbar)) @ c
    assert rel_err(grid, got, want) < 1e-10


def test_dense_path_guard_trips_on_large_grids():
    grid = WaveGrid(2, 64, 8.0, 0.1)
    psi = gaussian(grid, sigma=1.0)
    xi2 = Expr.var("xi2")
    amp = NumericAmplitude(Expr.exp(I * Expr.var("x1") * xi2),
                           ["x1", "x2"], ["xi1", "xi2"])
    with pytest.raises(ValueError):
        kn_apply(grid, amp, psi)


def test_amplitude_dimension_mismatch_is_rejected():
    grid = WaveGrid(2, 16, 4.0, 0.1)
    psi = gaussian(grid, sigma=0.8)
    with pytest.raises(ValueError):
        kn_apply(grid, NumericAmplitude(X1, ["x1"]), psi)
    with pytest.raises(ValueError):
        NumericAmplitude(X1, ["x1", "x2"], ["xi1"])


# ---------------------------------------------------------------------------
# pullback paths


def test_pullback_identity_is_copy():
    grid = grid_1d(npoints=32)
    psi = gaussian(grid, sigma=0.9)
    out = grid_pullback(grid, Diffeo.identity(["x1"]), psi)
    assert np.array_equal(out, psi)
    assert out is not psi


def test_pullback_lattice_translation_is_exact_roll():
    grid = grid_1d()
    psi = gaussian(grid, centers=[0.3], sigma=0.8, momenta=[0.1])
    action = translations(1)
    phi = action.diffeo(action.group.element(2))
    out = grid_pullback(grid, phi, psi)
    assert np.array_equal(out, np.roll(psi, int(round(2.0 / grid.delta))))


def test_pullback_offlattice_translation_matches_analytic():
    grid = grid_1d()
    c0, sigma, p = 0.0, 0.8, 0.2
    action = translations(1)
    phi = action.diffeo(action.group.element(Fraction(3, 10)))

    def packet(x):
        raw = np.exp(-(x - c0) ** 2 / (2 * sigma ** 2) + 1j * p * x / grid.hbar)
        return raw

    psi = packet(grid.axis())
    psi = psi / grid.norm(psi)
    out = grid_pullback(grid, phi, psi)
    want = packet(grid.axis() - 0.3) / grid.norm(packet(grid.axis()))
    assert rel_err(grid, out, want) < 1e-10
    assert abs(grid.norm(out) - grid.norm(psi)) < 1e-12


def test_pullback_quarter_turn_is_exact_permutation():
    grid = WaveGrid(2, 32, 4.0, 0.1)
    psi = gaussian(grid, centers=[0.5, -0.25], sigma=0.7, momenta=[0.1, -0.2])
    rot = cyclic_rotations(4)
    out = grid_pullback(grid, rot.diffeo(1), psi)
    m = grid.npoints
    j1, j2 = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    # phi^{-1}(x, y) = (y, -x); index of the value -x_j is (M - j) mod M
    want = psi[j2, (m - j1) % m]
    assert np.array_equal(out, want)


def test_unit_amplitude_composition_law_on_rotations():
    grid = WaveGrid(2, 32, 4.0, 0.1)
    psi = gaussian(grid, centers=[0.5, 0.25], sigma=0.7)
    rot = cyclic_rotations(4)
    one = NumericAmplitude(Expr.one(), ["x", "y"])
    two_step = fio_apply(grid, one, rot.diffeo(1),
                         fio_apply(grid, one, rot.diffeo(1), psi))
    one_step = fio_apply(grid, one, rot.diffeo(2), psi)
    assert np.max(np.abs(two_step - one_step)) < 1e-14


def test_shear_path_agrees_with_mode_sum():
    grid = WaveGrid(2, 32, 6.0, 0.1)
    psi = gaussian(grid, centers=[0.0, 0.3], sigma=0.8, momenta=[0.15, -0.1])
    action = galilean_boosts()
    phi = action.diffeo(action.group.element(Fraction(1, 4)))
    sheared = grid_pullback(grid, phi, psi)
    assert abs(grid.norm(sheared) - grid.norm(psi)) < 1e-12

    from quantact.numfio import _bandlimited_pullback
    env = grid.coord_env(phi.coords)
    reals = [np.broadcast_to(np.real(np.asarray(eval_expr(g, env),
                                                dtype=complex)), grid.shape)
             for g in phi.inverse]
    direct = _bandlimited_pullback(grid, reals, psi)
    assert rel_err(grid, sheared, direct) < 1e-11


def test_dilation_uses_interpolation_and_scales_norm():
    # x -> 2x is neither a permutation nor a shear; the band-limited path
    # must reproduce psi(x/2), whose norm grows by sqrt(2).  The box is
    # sized so the dilated packet still decays below 1e-8 at the boundary.
    grid = grid_1d(npoints=64, length=12.0)
    sigma = 1.0

    def packet(x):
        return np.exp(-x ** 2 / (2 * sigma ** 2))

    psi = packet(grid.axis())
    psi = psi / grid.norm(psi)
    half = X1 * Expr.rational(1, 2)
    phi = Diffeo(["x1"], [Expr.integer(2) * X1], [half])
    out = grid_pullback(grid, phi, psi)
    want = packet(grid.axis() / 2.0) / grid.norm(packet(grid.axis()))
    assert rel_err(grid, out, want) < 1e-8
    assert abs(grid.norm(out) / grid.norm(psi) - math.sqrt(2.0)) < 1e-6


def test_interpolation_guard_trips_on_large_grids():
    grid = WaveGrid(2, 64, 8.0, 0.1)
    psi = np.zeros(grid.shape, dtype=complex)
    x1, x2 = Expr.var("x1"), Expr.var("x2")
    h = Expr.rational(1, 2)
    phi = Diffeo(["x1", "x2"],
                 [Expr.integer(2) * x1, Expr.integer(2) * x2],
                 [x1 * h, x2 * h])
    with pytest.raises(numfio.DenseGridError):
        grid_pullback(grid, phi, psi)
    # the plan refuses at once, before any packet is applied
    with pytest.raises(numfio.DenseGridError, match="structured"):
        pullback_plan(grid, phi)


def test_complex_map_is_refused_by_the_plan():
    grid = grid_1d(npoints=32)
    phi = Diffeo(["x1"], [I * X1], [-I * X1])
    with pytest.raises(ValueError, match="map must stay real on the grid"):
        pullback_plan(grid, phi)
    with pytest.raises(ValueError, match="map must stay real on the grid"):
        grid_pullback(grid, phi, gaussian(grid))


def test_a_map_with_a_pole_on_the_grid_is_refused_by_the_plan():
    # phi^{-1}(x1) = x1 - 1/x1 is infinite at the grid point x1 = 0 (32
    # points on [-4, 4)); read as lattice positions, NaN would pass a test
    # written as "err > tol" and be cast to a gather index.  Only phi^{-1}
    # enters the plan
    grid = WaveGrid(1, 32, 4.0, 0.1)
    assert 0.0 in grid.axis()
    phi = Diffeo(["x1"], [X1 + Expr.one() / X1], [X1 - Expr.one() / X1])
    assert phi.inverse_affine is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(numfio.NonFiniteMapError, match="map is not finite on the grid"):
            pullback_plan(grid, phi)
        # the lattice test reads a NaN position as off the lattice
        nan = np.full(grid.shape, np.nan)
        assert numfio._permutation_indices(grid, [nan]) is None
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("path", ["identity", "permutation", "shear", "band-limited"])
def test_one_pullback_plan_serves_many_packets(path):
    # one plan applied to two packets gives what two fresh pullbacks give
    if path == "band-limited":
        grid = grid_1d(npoints=64, length=12.0)
        phi = Diffeo(["x1"], [Expr.integer(2) * X1], [X1 * Expr.rational(1, 2)])
        centers, momenta = [[0.0], [0.5]], [[0.0], [0.1]]
    else:
        grid = WaveGrid(2, 32, 6.0, 0.1)
        phi = {"identity": Diffeo.identity(["x", "y"]),
               "permutation": cyclic_rotations(4).diffeo(1),
               "shear": galilean_boosts().diffeo(
                   galilean_boosts().group.element(Fraction(1, 4)))}[path]
        centers, momenta = [[0.0, 0.3], [0.5, -0.25]], [[0.15, -0.1], [0.0, 0.1]]
    psis = [gaussian(grid, centers=c, sigma=0.8, momenta=p)
            for c, p in zip(centers, momenta)]
    plan = pullback_plan(grid, phi)
    for psi in psis:
        assert np.array_equal(plan(psi), grid_pullback(grid, phi, psi))


# ---------------------------------------------------------------------------
# the affine classifier against the grid-value classifier


def reference_pullback_plan(grid, phi):
    """The pullback classifier that reads the map's values on the full grid
    only: the realness check, the lattice test on every pulled-back point,
    the single-axis shear with its shift broadcast to the grid, then the
    band-limited fallback.  It is the oracle for the affine classifier and
    returns (path name, plan)."""
    if phi.is_identity():
        return "identity", lambda psi: np.array(psi, dtype=complex)
    env = grid.coord_env(phi.coords)
    targets = [_grid_values(g, env, grid.shape) for g in phi.inverse]
    if any(np.max(np.abs(t.imag)) > GRID_TOL for t in targets):
        raise ValueError("map must stay real on the grid")
    reals = [t.real for t in targets]
    idx = []
    for t in reals:
        frac = (t + grid.length) / grid.delta
        rounded = np.rint(frac)
        if np.max(np.abs(frac - rounded)) > GRID_TOL:
            break
        idx.append(np.mod(rounded.astype(np.int64), grid.npoints))
    else:
        return "permutation", lambda psi: np.array(psi, dtype=complex)[tuple(idx)]
    moved = [(i, inv - Expr.var(c))
             for i, (c, inv) in enumerate(zip(phi.coords, phi.inverse))
             if not (inv - Expr.var(c)).is_exact_zero()]
    if len(moved) == 1 and moved[0][1].diff(phi.coords[moved[0][0]]).is_exact_zero():
        axis, diff = moved[0]
        shift = _grid_values(diff, env, grid.shape)
        if np.max(np.abs(shift.imag)) <= 1e-12:
            shift = -shift.real
            shape = [1] * grid.dim
            shape[axis] = grid.npoints
            phase = np.exp(-1j / grid.hbar * grid.xi_axis().reshape(shape) * shift)
            return "shear", lambda psi: np.fft.ifft(
                np.fft.fft(np.asarray(psi, dtype=complex), axis=axis) * phase, axis=axis)
    _check_dense(grid, "pullback needs a structured (permutation or shear) map")
    return "band-limited", lambda psi: _bandlimited_pullback(grid, reals, psi)


def oracle_grids(dim):
    # spacing 1/4 puts quarter translations and integer shears on the
    # lattice; spacing 3/10 puts them off it
    npoints = 32 if dim == 1 else 16
    return [WaveGrid(dim, npoints, npoints * spacing / 2, 0.1) for spacing in (0.25, 0.3)]


def oracle_maps():
    """(label, map) for every element of the finite 1-D/2-D built-ins and
    sampled elements of the parameter ones, plus the named extra cases."""
    rng = random.Random(5)
    maps = []
    for name, factory in sorted(BUILTIN_ACTIONS.items()):
        action = factory()
        if action.dim > 2:
            continue
        for g in action.sample_elements(rng, count=6):
            maps.append(("%s %s" % (name, g), action.diffeo(g)))
    boosts = galilean_boosts()
    maps.append(("translation by 3/10", translations(1).diffeo(
        translations(1).group.element(Fraction(3, 10)))))
    maps.append(("lattice shear v = 1", boosts.diffeo(boosts.group.element(1))))
    t, x = Expr.var("t"), Expr.var("x")
    maps.append(("non-affine (t, x + t^2)", Diffeo(["t", "x"], [t, x + t * t],
                                                   [t, x - t * t])))
    return maps


@pytest.mark.parametrize("label,phi", oracle_maps(), ids=lambda v: str(v))
def test_affine_classification_matches_the_grid_value_classifier(label, phi):
    np_rng = np.random.default_rng(7)
    for grid in oracle_grids(phi.dim):
        _, want = reference_pullback_plan(grid, phi)
        got = pullback_plan(grid, phi)
        for _ in range(2):
            psi = (np_rng.standard_normal(grid.shape)
                   + 1j * np_rng.standard_normal(grid.shape))
            assert np.array_equal(got(psi), want(psi)), (label, grid.delta)


def test_oracle_maps_cover_every_path():
    maps = oracle_maps()
    paths = {reference_pullback_plan(grid, phi)[0]
             for _, phi in maps for grid in oracle_grids(phi.dim)}
    assert paths == {"identity", "permutation", "shear", "band-limited"}
    # the extra cases take the paths they are named for on the 1/4 grids,
    # and only the bent map lacks affine data
    cases = {"translation by 3/10": "shear", "lattice shear v = 1": "permutation",
             "non-affine (t, x + t^2)": "shear"}
    for label, phi in maps:
        if label in cases:
            assert reference_pullback_plan(oracle_grids(phi.dim)[0], phi)[0] == cases[label]
            assert (phi.inverse_affine is None) == label.startswith("non-affine")


def count_lattice_tests(monkeypatch, grid, phi):
    calls = []
    real = numfio._permutation_indices

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(numfio, "_permutation_indices", counting)
    pullback_plan(grid, phi)
    return len(calls)


def test_a_non_integral_affine_map_skips_the_lattice_test(monkeypatch):
    grid = WaveGrid(2, 64, 10.0, 0.1)
    boosts = galilean_boosts()
    boost = boosts.diffeo(boosts.group.element(Fraction(3, 20)))
    assert count_lattice_tests(monkeypatch, grid, boost) == 0
    # an integral map and a non-affine map are tested
    lattice = boosts.diffeo(boosts.group.element(1))
    assert count_lattice_tests(monkeypatch, grid, lattice) == 1
    t, x = Expr.var("t"), Expr.var("x")
    bent = Diffeo(["t", "x"], [t, x + t * t], [t, x - t * t])
    assert count_lattice_tests(monkeypatch, grid, bent) == 1


def test_one_kn_plan_serves_many_packets():
    grid = grid_1d(npoints=64)
    psis = [gaussian(grid, centers=[0.0], sigma=0.8, momenta=[0.2]),
            gaussian(grid, centers=[0.5], sigma=1.0, momenta=[-0.1])]
    for expr in (Expr.exp(I * X1), XI1 * XI1, X1 * XI1 + HB, Expr.exp(I * X1 * XI1)):
        amp = NumericAmplitude(expr, ["x1"])
        plan = kn_plan(grid, amp)
        for psi in psis:
            assert np.array_equal(plan(psi), kn_apply(grid, amp, psi))


def test_kn_apply_on_a_nonpolynomial_quotient_terminates():
    # d/dxi of exp(i x xi/7)/(1+x^2) used to square the denominator on every
    # derivative; the frequency decomposition tried twelve of them
    code = ("from quantact.expr import VarBinding, parse\n"
            "from quantact.numfio import NumericAmplitude, WaveGrid, gaussian, kn_apply\n"
            "b = VarBinding(coordinates=['x1', 'xi1'])\n"
            "amp = NumericAmplitude(parse('exp(i*x1*xi1/7)/(1+x1^2)', b), ['x1'])\n"
            "grid = WaveGrid(1, 32, 8.0, 0.1)\n"
            "print(kn_apply(grid, amp, gaussian(grid)).shape)\n")
    src = os.path.dirname(os.path.dirname(quantact.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(32,)"


# ---------------------------------------------------------------------------
# unitarity and representation residuals


def test_unitarity_residual_separates_unitary_from_scaled():
    grid = grid_1d(npoints=64)
    psis = [gaussian(grid, centers=[0.0], sigma=0.8, momenta=[0.2]),
            gaussian(grid, centers=[0.5], sigma=1.0, momenta=[-0.1])]
    action = translations(1)
    phi = action.diffeo(action.group.element(1))
    norms, gram = packet_gram(grid, psis)
    good = unitarity_residual(grid, [grid_pullback(grid, phi, p) for p in psis],
                              norms, gram)
    assert good < 1e-12
    two = NumericAmplitude(2, ["x1"])
    bad = unitarity_residual(grid, [kn_apply(grid, two, p) for p in psis],
                             norms, gram)
    assert bad > 1.0


@pytest.mark.parametrize("amplitude", [10 ** 308, 10 ** 308 + XI1, 10 ** 308 + X1 * XI1],
                         ids=["x_only", "xi_only", "separable"])
def test_an_overflowing_application_is_refused(amplitude):
    # the amplitude is finite on the grid, so the plan builds; applied to a
    # packet whose peak is above 1 (x-only, xi-only and separable paths) it
    # overflows, and the application refuses its output
    grid = grid_1d(npoints=64)
    psi = 4.0 * gaussian(grid, centers=[0.0], sigma=0.5)
    plan = kn_plan(grid, NumericAmplitude(amplitude, ["x1"]))
    with pytest.raises(numfio.NonFiniteError):
        with np.errstate(all="ignore"):
            plan(psi)


def test_a_nan_image_fails_both_residuals():
    # max() would drop the NaN and report the finite pairs' residual
    grid = grid_1d(npoints=64)
    psis = [gaussian(grid, centers=[0.0], sigma=0.8),
            gaussian(grid, centers=[0.5], sigma=1.0)]
    norms, gram = packet_gram(grid, psis)
    images = [np.full(grid.shape, np.nan, dtype=complex), psis[1]]
    assert math.isnan(unitarity_residual(grid, images, norms, gram))
    same = lambda p: np.array(p, dtype=complex)  # noqa: E731
    assert math.isnan(representation_residual(grid, same, same, images, psis, norms))


def free_boost_phase():
    action = galilean_boosts()
    m, t, x = Expr.var("m"), Expr.var("t"), Expr.var("x")
    half = Expr.rational(1, 2)

    def fn(gs):
        v = gs[0][0]
        return m * v * x - half * m * v * v * t

    return action, PhaseCochain(action, 1, fn=fn)


def test_boost_system_is_unitary_and_multiplicative():
    grid = WaveGrid(2, 64, 10.0, 0.1)
    action, phase = free_boost_phase()
    consts = {"m": 1.0}
    psis = [gaussian(grid, centers=[0.0, 0.0], sigma=1.0, momenta=[0.1, 0.05]),
            gaussian(grid, centers=[0.5, -0.5], sigma=1.2, momenta=[-0.05, 0.1])]
    vs = [action.group.element(Fraction(1, 5)),
          action.group.element(Fraction(1, 10)),
          action.group.element(Fraction(-3, 20))]

    def plan_for(g):
        return lambda p: phase_system_apply(grid, action, phase, g, p, consts=consts)

    norms, gram = packet_gram(grid, psis)
    uni = unitarity_residual(grid, [plan_for(vs[0])(p) for p in psis], norms, gram)
    assert uni < 1e-10
    pairs = [(vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2])]
    rep = max(representation_residual(grid, plan_for(g1), plan_for(action.mult(g1, g2)),
                                      [plan_for(g2)(p) for p in psis], psis, norms)
              for g1, g2 in pairs)
    assert rep < 1e-9


def test_perturbed_boost_phase_fails_multiplicativity():
    grid = WaveGrid(2, 64, 10.0, 0.1)
    action, _ = free_boost_phase()
    m, t, x = Expr.var("m"), Expr.var("t"), Expr.var("x")
    half = Expr.rational(1, 2)

    def fn(gs):
        v = gs[0][0]
        return m * v * x - half * m * v * v * t + v * x * x

    phase = PhaseCochain(action, 1, fn=fn)
    consts = {"m": 1.0}
    psis = [gaussian(grid, centers=[0.0, 0.0], sigma=1.0, momenta=[0.1, 0.05])]
    v1 = action.group.element(Fraction(1, 5))
    v2 = action.group.element(Fraction(1, 10))

    def plan_for(g):
        return lambda p: phase_system_apply(grid, action, phase, g, p, consts=consts)

    # each boost alone stays unitary; the product law is what breaks
    norms, gram = packet_gram(grid, psis)
    uni = unitarity_residual(grid, [plan_for(v1)(p) for p in psis], norms, gram)
    assert uni < 1e-10
    rep = representation_residual(grid, plan_for(v1), plan_for(action.mult(v1, v2)),
                                  [plan_for(v2)(p) for p in psis], psis, norms)
    assert rep > 1e-3


# ---------------------------------------------------------------------------
# product and expansion consistency


def test_grid_composition_matches_symbolic_product():
    grid = grid_1d(npoints=64)
    psi = gaussian(grid, centers=[0.2], sigma=0.9, momenta=[0.2])
    a = NumericAmplitude(X1 * XI1 + XI1 * XI1, ["x1"])
    b = NumericAmplitude(X1 * X1 - XI1 * Expr.rational(1, 2), ["x1"])
    assert standard_product_residual(grid, a, b, psi) < 1e-9
    # the reversed order probes the non-commutative correction terms
    assert standard_product_residual(grid, b, a, psi) < 1e-9


def test_unit_factor_and_shift_composition_are_exact():
    grid = grid_1d(npoints=64)
    psi = gaussian(grid, centers=[0.2], sigma=0.9, momenta=[0.2])
    one = NumericAmplitude(Expr.one(), ["x1"])
    poly = NumericAmplitude(X1 * XI1, ["x1"])
    assert standard_product_residual(grid, one, poly, psi) < 1e-12
    assert standard_product_residual(grid, poly, one, psi) < 1e-12
    # translation multipliers: all correction terms vanish, so composing
    # two shifts equals the shift by the summed offset exactly
    sa = NumericAmplitude(Expr.exp(I * XI1 * Expr.rational(3, 4) / HB), ["x1"])
    sb = NumericAmplitude(Expr.exp(I * XI1 * Expr.rational(-1, 2) / HB), ["x1"])
    assert standard_product_residual(grid, sa, sb, psi) < 1e-12


def test_symbol_amplitude_roundtrip():
    expr = X1 * X1 * XI1 * XI1 + Expr.integer(3) * XI1 + X1
    sym = symbol_from_polynomial(expr, ["x1"], ["xi1"])
    assert sym.order == 2
    amp = symbol_amplitude(sym, ["x1"], ["xi1"])
    assert is_zero(amp.expr - expr).ok

    shifted = FormalSymbol(1, 2, [PolyXi(1, {}), PolyXi(1, {}),
                                  PolyXi(1, {(1,): X1})])
    amp2 = symbol_amplitude(shifted, ["x1"], ["xi1"])
    assert is_zero(amp2.expr - HB * X1 * XI1).ok
    with pytest.raises(ValueError):
        symbol_from_polynomial(expr, ["x1"], ["xi1"], order=1)


def test_normal_form_evaluator_matches_quantization():
    grid = grid_1d(npoints=64)
    psi = gaussian(grid, centers=[0.1], sigma=0.9, momenta=[0.15])
    expr = X1 + X1 * XI1 + XI1 * XI1
    sym = symbol_from_polynomial(expr, ["x1"], ["xi1"])
    amp = symbol_amplitude(sym, ["x1"], ["xi1"])
    direct = kn_apply(grid, amp, psi)
    op = FormalOperator(sym, Diffeo.identity(["x1"]))
    formal = apply_operator_numeric(grid, op, psi)
    assert rel_err(grid, formal, direct) < 1e-12


def shear_map_2d():
    x1, x2 = Expr.var("x1"), Expr.var("x2")
    h = Expr.rational(1, 2)
    return Diffeo(["x1", "x2"], [x1, x2 + x1 * h], [x1, x2 - x1 * h])


def trig_series(kind):
    w0, x1, x2 = Expr.var("w0"), Expr.var("x1"), Expr.var("x2")
    xi1, xi2 = Expr.var("xi1"), Expr.var("xi2")
    if kind == "first-order":
        return AmplitudeSeries(2, [xi1 * Expr.cos(w0 * x1),
                                   xi2 * Expr.sin(w0 * x2)])
    if kind == "mixed":
        return AmplitudeSeries(2, [xi1 * xi2 * Expr.cos(w0 * x2),
                                   xi2 * Expr.sin(w0 * x2),
                                   xi1 * Expr.sin(w0 * x1)])
    return AmplitudeSeries(2, [xi1 * Expr.cos(w0 * x1)])


def packet_factory(kappa):
    # fixed true frequency: the physical momentum scales with hbar, so the
    # frequency content of the packet is resolution-independent and every
    # dropped expansion slot costs exactly one power of hbar
    def make(grid):
        return gaussian(grid, centers=[0.0, 0.0], sigma=1.0,
                        momenta=[k * grid.hbar for k in kappa])
    return make


def test_expansion_of_pure_first_order_symbol_is_exact():
    fit = asymptotic_consistency(
        2, 64, 8.0, trig_series("pure"), shear_map_2d(),
        packet_factory([1.5, 1.0]), [0.1, 0.05, 0.025], truncation=1,
        consts={"w0": math.pi / 8.0})
    assert fit.status == "exact"


def test_expansion_slope_is_second_order_past_truncation():
    fit = asymptotic_consistency(
        2, 64, 8.0, trig_series("first-order"), shear_map_2d(),
        packet_factory([1.5, 1.0]), [0.1, 0.05, 0.025], truncation=1,
        consts={"w0": math.pi / 8.0})
    assert fit.status == "fitted"
    assert 1.9 <= fit.slope <= 2.1


def test_taylor_weight_conventions_differ_on_mixed_indices():
    # the conventions disagree exactly at the mixed second-order index, so
    # the per-index weight must reach third order while the total-degree
    # weight leaves a second-order defect
    kwargs = dict(consts={"w0": math.pi / 8.0})
    good = asymptotic_consistency(
        2, 64, 8.0, trig_series("mixed"), shear_map_2d(),
        packet_factory([1.5, 1.0]), [0.1, 0.05, 0.025], truncation=2,
        convention="multi", **kwargs)
    assert good.status == "fitted"
    assert good.slope >= 2.8
    off = asymptotic_consistency(
        2, 64, 8.0, trig_series("mixed"), shear_map_2d(),
        packet_factory([1.5, 1.0]), [0.1, 0.05, 0.025], truncation=2,
        convention="total", **kwargs)
    assert off.status == "fitted"
    assert max(off.errors) > 1e-6
    assert off.slope <= 2.5


# ---------------------------------------------------------------------------
# the worker beside the caller


def _on_the_worker(call, threads):
    """``call()`` on the worker thread: the caller's own first call of
    ``numfio.overlap`` waits until the worker has taken the second.  The
    thread that ran ``call`` is appended to ``threads``."""
    started = threading.Event()

    def marked():
        threads.append(threading.current_thread())
        started.set()
        return call()

    def wait():
        assert started.wait(timeout=10), "the worker took no call"

    return numfio.overlap([wait, marked])[1]


def test_overlap_keeps_call_order_and_raises_the_first_error():
    ran = []

    def call(k, fails=False):
        ran.append(k)
        if fails:
            raise ValueError(k)
        return k * k

    assert numfio.overlap([lambda k=k: call(k) for k in range(5)]) == [0, 1, 4, 9, 16]
    assert numfio.overlap([]) == []
    ran.clear()
    with pytest.raises(ValueError, match="^2$"):
        numfio.overlap([lambda k=k: call(k, fails=k in (2, 3)) for k in range(5)])
    assert sorted(ran) == [0, 1, 2, 3, 4]


def test_every_call_ends_before_an_error_is_raised(monkeypatch):
    # the caller's call fails while the worker's is still running: nothing
    # of the failed overlap runs on after it
    monkeypatch.setattr(numfio, "WORKERS", 1)
    started, finished = threading.Event(), []

    def slow():
        started.set()
        time.sleep(0.2)
        finished.append(True)

    def fails():
        assert started.wait(timeout=10), "the worker took no call"
        raise ValueError("first")

    with pytest.raises(ValueError, match="first"):
        numfio.overlap([fails, slow])
    assert finished == [True]


def test_an_overflow_on_the_worker_is_refused_under_the_callers_errstate(monkeypatch):
    # np.errstate is a context variable: the worker runs each call in a copy
    # of the caller's context, so the overflow is checked, not warned of
    monkeypatch.setattr(numfio, "WORKERS", 1)
    grid = grid_1d(npoints=64)
    psi = 4.0 * gaussian(grid, centers=[0.0], sigma=0.5)
    plan = kn_plan(grid, NumericAmplitude(10 ** 308, ["x1"]))
    threads = []
    with pytest.raises(numfio.NonFiniteError):
        with np.errstate(all="ignore"):
            _on_the_worker(lambda: plan(psi), threads)
    assert threads == [numfio._worker]


def test_a_call_that_overlaps_calls_of_its_own_finishes(monkeypatch):
    # the worker runs the calls it makes itself, in order: waiting for its
    # own queue would never end
    monkeypatch.setattr(numfio, "WORKERS", 1)
    threads, results = [], []
    runner = threading.Thread(target=lambda: results.append(_on_the_worker(
        lambda: numfio.overlap([lambda: 1, lambda: 2]), threads)), daemon=True)
    runner.start()
    runner.join(timeout=10)
    assert not runner.is_alive()
    assert results == [[1, 2]]
    assert threads == [numfio._worker]


def test_concurrent_callers_each_get_their_own_results(monkeypatch):
    # more callers than CPUs share the worker's queue and take each other's
    # calls while they wait: every call runs once, and every caller gets its
    # own results in order
    monkeypatch.setattr(numfio, "WORKERS", 1)
    ran, wrong = [], []

    def record(*key):
        ran.append(key)
        return key

    def caller(c):
        for r in range(40):
            got = numfio.overlap([lambda k=k: record(c, r, k) for k in range(4)])
            if got != [(c, r, k) for k in range(4)]:
                wrong.append((c, r, got))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert wrong == []
    assert sorted(ran) == [(c, r, k) for c in range(6) for r in range(40) for k in range(4)]


def test_no_worker_runs_every_call_on_the_caller(monkeypatch):
    monkeypatch.setattr(numfio, "WORKERS", 0)
    caller = threading.current_thread()
    assert numfio.overlap([threading.current_thread] * 3) == [caller] * 3
