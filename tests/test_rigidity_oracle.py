"""The twisted cohomology of finite actions against an oracle from rigidity.

Over Q(i), which has characteristic 0, averaging over a finite group G
splits every cochain complex of its representations (Maschke's theorem;
Brown, *Cohomology of Groups*, ch. III).  With the unital twist P0 = 1 the
cohomology at symbol order n is then H^1 = H^2 = 0, and H^0 is the space of
invariants of G on the span of basis monomial x^beta times xi^alpha,
|alpha| <= n, whose dimension is the average (1/|G|) sum_g tr rho_n(g).

The oracle holds only for orthogonal signed-permutation actions, which the
builtins ``rotations_c2``, ``rotations_c4`` and ``sign_flip_c2`` are: each
A_g sends a monomial to plus or minus one monomial, so a trace is a signed
count of fixed monomials.  Since A_g^{-T} = A_g, it does not matter whether
xi moves by A_g or A_g^{-T}, nor whether g or g^{-1} acts: the average is the
same.  The oracle is plain int arithmetic and imports nothing from quantact.

The same splitting gives H^2 = 0 at every symbol order, so the order-2
equation of a Maurer-Cartan solution over a genuine order-1 solution has a
closed right-hand side and is always solvable, and the solution reinserts to
a zero residual.  That holds when the basis span is a G-module, as the
monomials of bounded degree are under signed permutations.
"""

import functools
import itertools
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quantact import cli  # noqa: E402
from quantact.actions import BUILTIN_ACTIONS  # noqa: E402
from quantact.dga import (Cochain, CoefficientBasis, cochain_zero_report,  # noqa: E402
                          mc_residual, solve_order, trivial_system)
from quantact.expr import Expr  # noqa: E402
from quantact.symbols import FormalSymbol, PolyXi  # noqa: E402

# a generator as a signed permutation: component i of A x is s_i x_{j_i},
# written ((j_0, s_0), (j_1, s_1), ...), and the order of the cyclic group
GENERATORS = {
    "rotations_c2": (((0, -1), (1, -1)), 2),    # (x, y) -> (-x, -y)
    "rotations_c4": (((1, -1), (0, 1)), 4),     # (x, y) -> (-y, x)
    "sign_flip_c2": (((0, -1),), 2),            # x -> -x
}


def compose(a, b):
    """The signed permutation of x -> A(B x)."""
    return tuple((b[j][0], s * b[j][1]) for j, s in a)


def elements(name):
    gen, order = GENERATORS[name]
    power = tuple((i, 1) for i in range(len(gen)))
    out = []
    for _ in range(order):
        out.append(power)
        power = compose(gen, power)
    assert power == out[0]   # the generator has the stated order
    return out


def monomial_trace(a, degree):
    """Trace of f -> f o A on the polynomials of degree <= ``degree``:
    (A x)^beta is sign * x^gamma, and x^beta counts when gamma = beta."""
    total = 0
    for beta in itertools.product(range(degree + 1), repeat=len(a)):
        if sum(beta) > degree:
            continue
        gamma, sign = [0] * len(a), 1
        for (j, s), b in zip(a, beta):
            gamma[j] += b
            sign *= s ** b
        total += sign if tuple(gamma) == beta else 0
    return total


def invariants(name, degree, order):
    """dim H^0 at symbol ``order`` over the monomials of degree <= ``degree``:
    the trace on x^beta xi^alpha is the product of the two traces."""
    group = elements(name)
    total = sum(monomial_trace(a, degree) * monomial_trace(a, order) for a in group)
    assert total % len(group) == 0
    return total // len(group)


def test_the_oracle_reproduces_the_worked_example():
    # configs/cohomology_c4.cfg: C4 on basis degree 2, orders 0..2
    assert [invariants("rotations_c4", 2, n) for n in range(3)] == [2, 4, 10]
    # x -> -x on x^b xi^a, b <= 3, a <= n: the monomials of even degree b + a
    assert [invariants("sign_flip_c2", 3, n) for n in range(4)] == [2, 4, 6, 8]


@hypothesis.settings(max_examples=48, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(sorted(GENERATORS)), st.integers(0, 3), st.integers(0, 3))
def test_cohomology_of_finite_actions_matches_the_rigidity_oracle(tmp_path_factory, name,
                                                                   degree, order):
    out = tmp_path_factory.mktemp("cohomology")
    path = out / "run.cfg"
    path.write_text("[session]\ntask = cohomology\norder = %d\n\n[action]\nbuiltin = %s\n\n"
                    "[basis]\nmonomials = %d\n" % (order, name, degree))
    status, text = cli.run(cli.SessionConfig.load(str(path), out=str(out)))
    assert status == 0, text
    rows = re.findall(r"^order (\d+): H0=(\d+) H1=(\d+) H2=(\d+)$", text, re.M)
    assert [tuple(map(int, row)) for row in rows] == [
        (n, invariants(name, degree, n), 0, 0) for n in range(order + 1)]


@functools.cache
def order_one(name):
    """The action and the order-1 cocycle basis over the monomials of degree <= 1."""
    action = BUILTIN_ACTIONS[name]()
    res = solve_order(action, trivial_system(action, 1), {}, 1,
                      CoefficientBasis.monomials(action.coords, 1))
    assert res.rhs_closed and res.solved
    return action, res.cocycle_basis


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(sorted(GENERATORS)),
                  st.lists(st.integers(-3, 3), min_size=6, max_size=6))
def test_the_order_two_equation_over_an_order_one_solution_solves(name, weights):
    # the span of the monomials of degree <= 2 is a G-module under these
    # signed permutations, so H^2 = 0 on it and nothing can obstruct
    action, cocycles = order_one(name)
    p1 = Cochain.zero(action, 1, 1)
    for w, cocycle in zip(weights, cocycles):
        p1 = p1.add(cocycle.scale(Expr.rational(w, 1)))
    lifted = Cochain(action, 1, 2, table={
        (g,): FormalSymbol(action.dim, 2, p1.value((g,)).comps + [PolyXi.zero(action.dim)])
        for g in action.group.elements()})
    p0 = trivial_system(action, 2)
    res = solve_order(action, p0, {1: lifted}, 2, CoefficientBasis.monomials(action.coords, 2))
    assert res.rhs_closed and res.solved
    rep = cochain_zero_report(mc_residual(p0.add(lifted).add(res.solution)))
    assert len(rep.items) == action.group.size ** 2
    assert all(item.ok and item.kind == "exact" for item in rep.items), rep.render()
