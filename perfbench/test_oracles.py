"""Tests of the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py

The character oracle is checked against a second count that builds the
Reynolds projector of the group as an integer matrix and takes its rank.
The closed form of the boosts is checked for its own group law; its
agreement with quantact is what the boost_grid workload checks.
"""

import os
import sys
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def projector_rank(coeff_degree, xi_degree):
    """dim M^G as the rank of (1/4) sum_g rho(g), rho(g) built monomial by
    monomial from the coordinate substitution x -> -y, y -> x."""
    xs, xis = oracles.monomials(coeff_degree), oracles.monomials(xi_degree)
    basis = [(m, f) for f in xis for m in xs]
    index = {b: i for i, b in enumerate(basis)}

    def expand(a, b):
        # (-y)^a x^b as {(i, j): coefficient of x^i y^j}
        return {(b, a): (-1) ** a}

    turn = np.zeros((len(basis), len(basis)), dtype=np.int64)
    for (m, f), col in index.items():
        for mm, cm in expand(*m).items():
            for ff, cf in expand(*f).items():
                turn[index[(mm, ff)], col] += cm * cf
    total = np.zeros_like(turn)
    power = np.eye(len(basis), dtype=np.int64)
    for _ in range(4):
        total += power
        power = turn @ power
    assert np.array_equal(power, np.eye(len(basis), dtype=np.int64))
    return int(np.linalg.matrix_rank(total.astype(float)))


def test_character_oracle_matches_projector_rank():
    for coeff_degree in range(5):
        for xi_degree in range(4):
            assert (oracles.invariant_dim(coeff_degree, xi_degree)
                    == projector_rank(coeff_degree, xi_degree))


def test_character_oracle_reference_values():
    assert oracles.c4_cohomology(2, 2) == {0: (2, 0, 0), 1: (4, 0, 0),
                                           2: (10, 0, 0)}
    assert oracles.c4_cohomology(1, 1) == {0: (1, 0, 0), 1: (3, 0, 0)}
    assert oracles.c4_solve_kernel(6, 3) == 212
    assert oracles.c4_solve_kernel(4, 2) == 66


def _mesh(points=128, length=10.0):
    axis = oracles.grid_axes(points, length)
    return np.meshgrid(axis, axis, indexing="ij")


def test_boost_closed_form_is_a_representation():
    t, x = _mesh()
    mass, hbar = 1.0, 0.1

    def psi(tt, xx):
        return oracles.packet(tt, xx, [0.5, -0.5], [0.1, -0.05], 1.0, hbar)

    v, w = Fraction(1, 10), Fraction(-3, 20)
    assert oracles.relative_l2(oracles.boost_closed_form(t, x, 0, mass, psi),
                               psi(t, x)) == 0.0

    def boosted_w(tt, xx):
        return oracles.boost_closed_form(tt, xx, w, mass, psi)

    two_step = oracles.boost_closed_form(t, x, v, mass, boosted_w)
    one_step = oracles.boost_closed_form(t, x, v + w, mass, psi)
    assert oracles.relative_l2(two_step, one_step) < 1e-13


def test_boost_closed_form_keeps_the_norm():
    t, x = _mesh()

    def psi(tt, xx):
        return oracles.packet(tt, xx, [0.0, 1.0], [0.0, 0.2], 1.0, 0.1)

    moved = oracles.boost_closed_form(t, x, Fraction(1, 5), 1.0, psi)
    assert abs(np.linalg.norm(moved) / np.linalg.norm(psi(t, x)) - 1) < 1e-12
