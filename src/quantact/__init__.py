"""quantact: symbolic and numerical workbench for quantizing group actions.

The package provides an exact expression engine (``expr``), truncated symbol
spaces and amplitude expansions (``symbols``), group actions by diffeomorphisms
(``actions``), the associated operator calculus and noncommutative product
(``opcalc``), the cochain differential graded algebra with Maurer-Cartan
solvers (``dga``), FFT-grid numerical checks (``numfio``) and a config-driven
command line interface (``cli``).  ``import quantact`` loads neither numpy
nor ``numfio``: the grid names live in ``quantact.numfio`` alone.
"""

from .expr import Expr, VarBinding, parse, is_zero, GaussRat, ExprError, ParseError
from .symbols import (AmplitudeSeries, FormalSymbol, PolyXi, dump_symbol,
                      load_symbol, multi_indices, taylor_from_amplitude)
from .actions import (ActionSpec, BUILTIN_ACTIONS, Diffeo, FiniteGroup,
                      ParamGroup, action_from_config, check_action,
                      cyclic_rotations, galilean_boosts, heisenberg,
                      integer_quarter_turns, sign_flip, translations,
                      trivial_action)
from .opcalc import (FormalFunction, FormalOperator, apply, compose,
                     standard_star, star)
from .dga import (Cochain, CoefficientBasis, PhaseCochain, character_phase,
                  cochain_zero_report, cohomology_dims, d, delta_phase,
                  exp_system, gauge_report, mc_residual, representation_report,
                  solve_order, star_graded, trivial_system, twisted_d)

__all__ = [
    "Expr", "VarBinding", "parse", "is_zero", "GaussRat", "ExprError",
    "ParseError",
    "AmplitudeSeries", "FormalSymbol", "PolyXi", "dump_symbol", "load_symbol",
    "multi_indices", "taylor_from_amplitude",
    "ActionSpec", "BUILTIN_ACTIONS", "Diffeo", "FiniteGroup", "ParamGroup",
    "action_from_config", "check_action", "cyclic_rotations",
    "galilean_boosts", "heisenberg", "integer_quarter_turns", "sign_flip",
    "translations", "trivial_action",
    "FormalFunction", "FormalOperator", "apply", "compose", "standard_star",
    "star",
    "Cochain", "CoefficientBasis", "PhaseCochain", "character_phase",
    "cochain_zero_report", "cohomology_dims", "d", "delta_phase",
    "exp_system", "gauge_report", "mc_residual", "representation_report",
    "solve_order", "star_graded", "trivial_system", "twisted_d",
]
