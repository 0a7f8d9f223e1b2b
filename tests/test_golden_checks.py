"""Identity-check reports at fixed seeds, compared byte for byte.

Each case renders one report: ``check_action`` on every built-in action and
on actions that fail in chosen ways, and sampled (tree-form) phase
``check-cocycle`` and ``mc-check`` runs through the command line driver,
passing and failing.  tests/golden_checks/<case>.txt holds the expected text.
The directory is kept apart from tests/golden/, whose files pair with
configs/.  Regenerate a file only together with a stated reason for the new
output.
"""

import os
import random

import pytest

from quantact.actions import (BUILTIN_ACTIONS, ActionSpec, Diffeo, FiniteGroup,
                              action_from_config, check_action)
from quantact.cli import SessionConfig, run
from quantact.expr import Expr

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_checks")


def _flip_c2(forward, inverse):
    x = Expr.var("x")
    return ActionSpec("broken", FiniteGroup.cyclic(2), ["x"],
                      diffeos=[Diffeo.identity(["x"]),
                               Diffeo(["x"], [forward(x)], [inverse(x)])])


def _custom(**keys):
    section = {"product": "a__1 + a__2", "param_inverse": "-a",
               "param_identity": "0", "params": "a"}
    section.update(keys)
    return action_from_config(section)


# actions whose axioms fail; each builder returns a fresh ActionSpec
FAILING_ACTIONS = {
    "bad_inverse": lambda: _flip_c2(lambda x: -x, lambda x: x),
    "non_homomorphism": lambda: _flip_c2(lambda x: x + 1, lambda x: x - 1),
    # the identity map x + 0/(1 + x^2) is a quotient tree, so it is sampled
    "noncanonical_identity": lambda: _custom(
        coords="x", forward="x + a/(1+x*x)", inverse="x - a/(1+x*x)"),
    # on the symbolic pair the first component fails exactly and the
    # second is a quotient tree
    "exact_and_sampled_homomorphism": lambda: _custom(
        coords="x, y", forward="x + a*a, y + a*y/(1+a*a)",
        inverse="x - a*a, y*(1+a*a)/(1+a+a*a)", volume_preserving="yes"),
}

PASSING_PHASE = "v*t/(1+t*t)"
FAILING_PHASE = "v*x/(1+t*t)"

PHASE_RUNS = {
    "check_cocycle_sampled_pass": ("check-cocycle", PASSING_PHASE, 0),
    "check_cocycle_sampled_fail": ("check-cocycle", FAILING_PHASE, 0),
    "mc_check_sampled_pass": ("mc-check", PASSING_PHASE, 1),
    "mc_check_sampled_fail": ("mc-check", FAILING_PHASE, 1),
}

CASES = (["check_action_" + name for name in sorted(BUILTIN_ACTIONS)]
         + ["check_action_" + name for name in sorted(FAILING_ACTIONS)]
         + sorted(PHASE_RUNS))


def render(case, workdir):
    """Text of one case's report."""
    if case in PHASE_RUNS:
        task, phase, order = PHASE_RUNS[case]
        path = os.path.join(workdir, case + ".cfg")
        with open(path, "w") as fh:
            fh.write("[session]\ntask = %s\norder = %d\nseed = 5\n\n"
                     "[action]\nbuiltin = galilean\n\n[phase]\nexpr = %s\n"
                     % (task, order, phase))
        return run(SessionConfig.load(path, out=workdir))[1]
    name = case[len("check_action_"):]
    action = (BUILTIN_ACTIONS.get(name) or FAILING_ACTIONS[name])()
    return check_action(action, rng=random.Random(7)).render()


def test_every_case_has_a_golden_report():
    names = sorted(os.path.splitext(f)[0] for f in os.listdir(GOLDEN))
    assert names == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, tmp_path):
    with open(os.path.join(GOLDEN, case + ".txt"), newline="") as fh:
        assert render(case, str(tmp_path)) == fh.read()
