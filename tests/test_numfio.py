"""Grid checks for the oscillatory-integral machinery.

Oracles are analytic: Gaussian derivatives in closed form, translations as
exact index rolls, multiplier amplitudes acting as closed-form shifts, and
the symbolic operator calculus cross-checked against grid quadrature.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from quantact.actions import (Diffeo, cyclic_rotations, galilean_boosts,
                              translations)
from quantact.dga import PhaseCochain
from quantact.expr import Expr, is_zero
from quantact.numfio import (NumericAmplitude, WaveGrid, apply_operator_numeric,
                             asymptotic_consistency, eval_expr, fio_apply,
                             gaussian, grid_pullback, inner, kn_apply,
                             phase_system_apply,
                             representation_residual, spectral_tail_fraction,
                             standard_product_residual, symbol_amplitude,
                             symbol_from_polynomial, unitarity_residual)
from quantact.opcalc import to_operator
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
    with pytest.raises(ValueError):
        grid_pullback(grid, phi, psi)


# ---------------------------------------------------------------------------
# unitarity and representation residuals


def test_unitarity_residual_separates_unitary_from_scaled():
    grid = grid_1d(npoints=64)
    psis = [gaussian(grid, centers=[0.0], sigma=0.8, momenta=[0.2]),
            gaussian(grid, centers=[0.5], sigma=1.0, momenta=[-0.1])]
    action = translations(1)
    phi = action.diffeo(action.group.element(1))
    good = unitarity_residual(grid, lambda p: grid_pullback(grid, phi, p), psis)
    assert good < 1e-12
    two = NumericAmplitude(2, ["x1"])
    bad = unitarity_residual(grid, lambda p: kn_apply(grid, two, p), psis)
    assert bad > 1.0


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

    def apply_for(g, p):
        return phase_system_apply(grid, action, phase, g, p, consts=consts)

    uni = unitarity_residual(grid, lambda p: apply_for(vs[0], p), psis)
    assert uni < 1e-10
    pairs = [(vs[0], vs[1]), (vs[1], vs[2]), (vs[0], vs[2])]
    rep = representation_residual(grid, apply_for, action.mult, pairs, psis)
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

    def apply_for(g, p):
        return phase_system_apply(grid, action, phase, g, p, consts=consts)

    # each boost alone stays unitary; the product law is what breaks
    uni = unitarity_residual(grid, lambda p: apply_for(v1, p), psis)
    assert uni < 1e-10
    rep = representation_residual(grid, apply_for, action.mult,
                                  [(v1, v2)], psis)
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
    op = to_operator(sym, Diffeo.identity(["x1"]), ["x1"])
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
        consts={"w0": math.pi / 8.0}, exact_floor=1e-9)
    assert fit.status == "exact"


def test_expansion_slope_is_second_order_past_truncation():
    fit = asymptotic_consistency(
        2, 64, 8.0, trig_series("first-order"), shear_map_2d(),
        packet_factory([1.5, 1.0]), [0.1, 0.05, 0.025], truncation=1,
        consts={"w0": math.pi / 8.0}, exact_floor=1e-9)
    assert fit.status == "fitted"
    assert 1.9 <= fit.slope <= 2.1


def test_taylor_weight_conventions_differ_on_mixed_indices():
    # the conventions disagree exactly at the mixed second-order index, so
    # the per-index weight must reach third order while the total-degree
    # weight leaves a second-order defect
    kwargs = dict(consts={"w0": math.pi / 8.0}, exact_floor=1e-9)
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
