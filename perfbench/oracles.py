"""Reference values computed without quantact.

Two oracles check the benchmark's outputs:

* ``invariant_dim`` counts the C4-invariant polynomial symbols from group
  characters.  A quarter turn permutes the monomials x^a y^b up to sign
  (x^a y^b -> (-1)^a x^b y^a), and the same holds for the frequency
  monomials xi1^a xi2^b, so the trace of each group element on a product of
  monomial spaces is a signed count of fixed monomials.  Averaging the
  traces over the group gives dim M^G.
* ``boost_closed_form`` evaluates T_v psi(t, x) = e^{i S_v(t, x)} psi(t, x - v t)
  for the Galilean boost with phase S_v = m v x - m v^2 t / 2 on a grid, with
  psi given as a formula rather than as grid samples.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def monomials(max_degree):
    """Exponent pairs (a, b) with a + b <= max_degree."""
    return [(a, k - a) for k in range(max_degree + 1) for a in range(k + 1)]


def _quarter_turn(mono):
    """Image of x^a y^b under x -> -y, y -> x, as (sign, exponents)."""
    a, b = mono
    return (-1) ** a, (b, a)


def signed_trace(max_degree, power):
    """Trace of the power-th quarter turn on polynomials of degree <= max_degree."""
    trace = 0
    for mono in monomials(max_degree):
        sign, image = 1, mono
        for _ in range(power):
            s, image = _quarter_turn(image)
            sign *= s
        if image == mono:
            trace += sign
    return trace


def invariant_dim(coeff_degree, xi_degree):
    """dim M^G for M = {xi-polynomials of degree <= xi_degree} (x) {x, y
    polynomials of degree <= coeff_degree} under the C4 rotation of the plane,
    which turns x and xi alike."""
    total = sum(signed_trace(coeff_degree, g) * signed_trace(xi_degree, g)
                for g in range(4))
    if total % 4:
        raise ArithmeticError("character average is not an integer")
    return total // 4


def module_dim(coeff_degree, xi_degree):
    """dim M, the identity's trace."""
    return len(monomials(coeff_degree)) * len(monomials(xi_degree))


def c4_cohomology(coeff_degree, max_order):
    """{order: (H0, H1, H2)} of the trivially twisted complex.

    A finite group has no higher cohomology over a field of characteristic 0,
    so H1 = H2 = 0 and H0 = dim M^G at every symbol order.
    """
    return {n: (invariant_dim(coeff_degree, n), 0, 0)
            for n in range(max_order + 1)}


def c4_solve_kernel(coeff_degree, order):
    """Dimension of the order-n cocycle space of ``mc-solve`` with a trivial
    twist: Z^1 = B^1 = M / M^G, since H^1 vanishes."""
    return module_dim(coeff_degree, order) - invariant_dim(coeff_degree, order)


# ---------------------------------------------------------------------------
# Galilean boosts on a grid


def grid_axes(points, length):
    """Sample points of [-L, L) with ``points`` samples per axis."""
    return -length + (2.0 * length / points) * np.arange(points)


def packet(t, x, center, momentum, sigma, hbar):
    """Unnormalized Gaussian packet on the (t, x) plane."""
    arg = (t - center[0]) ** 2 + (x - center[1]) ** 2
    phase = momentum[0] * t + momentum[1] * x
    return np.exp(-arg / (2.0 * sigma ** 2)) * np.exp(1j * phase / hbar)


def boost_closed_form(t, x, v, mass, psi):
    """T_v psi on the mesh (t, x); ``psi`` is a function of (t, x)."""
    v = float(Fraction(v))
    phase = mass * v * x - 0.5 * mass * v * v * t
    return np.exp(1j * phase) * psi(t, x - v * t)


def relative_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))
