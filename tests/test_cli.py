"""Config parsing and end-to-end runs of the command line tasks."""

import os
import subprocess
import sys
import weakref

import pytest

import quantact
from quantact import cli
from quantact.cli import ConfigError, SessionConfig, main, parse_config
from quantact.expr import Expr, is_zero
from quantact.symbols import load_symbol

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# config grammar


def test_parse_sections_and_keys():
    got = parse_config("[a]\nx = 1\ny = two words  # trailing\n\n[b]\nz=3\n")
    assert got == {"a": {"x": "1", "y": "two words"}, "b": {"z": "3"}}


def test_parse_comment_only_lines_skipped():
    assert parse_config("# header\n\n   # indented\n") == {}


@pytest.mark.parametrize("text,lineno", [
    ("[unclosed\nx = 1\n", 1),
    ("x = 1\n", 1),
    ("[a]\njust words\n", 2),
    ("[a]\nx = 1\n[a]\n", 3),
    ("[a]\nx = 1\nx = 2\n", 3),
    ("[a]\n = 1\n", 2),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert ("line %d:" % lineno) in str(err.value)


def test_load_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        SessionConfig.load("/nonexistent/quantact.cfg")


def test_load_requires_task(tmp_path):
    path = write(tmp_path, "[action]\nbuiltin = sign_flip_c2\n")
    with pytest.raises(ConfigError, match="no task"):
        SessionConfig.load(path)


def test_load_rejects_unknown_task(tmp_path):
    path = write(tmp_path, "[session]\ntask = frobnicate\n")
    with pytest.raises(ConfigError, match="unknown task"):
        SessionConfig.load(path)


def test_load_rejects_negative_order(tmp_path):
    path = write(tmp_path, "[session]\ntask = expand\norder = -1\n")
    with pytest.raises(ConfigError, match="order"):
        SessionConfig.load(path)


def test_flags_override_session_values(tmp_path):
    path = write(tmp_path,
                 "[session]\ntask = expand\norder = 1\nseed = 5\nout = a\n")
    cfg = SessionConfig.load(path, task="cohomology", order=3, seed=9, out="b")
    assert (cfg.task, cfg.order, cfg.seed, cfg.out) == ("cohomology", 3, 9, "b")


# ---------------------------------------------------------------------------
# end-to-end task runs


def run_cli(tmp_path, capsys, text, extra=()):
    cfg = write(tmp_path, text)
    out = str(tmp_path / "out")
    status = main(["--config", cfg, "--out", out] + list(extra))
    return status, capsys.readouterr(), out


def test_check_action_passes(tmp_path, capsys):
    status, io, out = run_cli(tmp_path, capsys, """
[session]
task = check-action
seed = 1

[action]
builtin = translations_1d
""")
    assert status == 0
    assert "result: PASS" in io.out
    report = read(os.path.join(out, "check-action.txt"))
    assert report == io.out


def test_boost_phase_is_closed_and_solves_mc(tmp_path, capsys):
    base = """
[session]
seed = 2

[action]
builtin = galilean

[phase]
expr = m*v*x - m*v*v*t/2
"""
    status, io, _ = run_cli(tmp_path, capsys, base,
                            ["--task", "check-cocycle"])
    assert status == 0 and "result: PASS" in io.out
    status, io, _ = run_cli(tmp_path, capsys, base,
                            ["--task", "mc-check", "--order", "2"])
    assert status == 0 and "result: PASS" in io.out


def test_perturbed_boost_phase_fails(tmp_path, capsys):
    text = """
[session]
task = mc-check
order = 2
seed = 2

[action]
builtin = galilean

[phase]
expr = m*v*x - m*v*v*t/2 + v*x*x
"""
    status, io, _ = run_cli(tmp_path, capsys, text)
    assert status == 1
    assert "result: FAIL" in io.out


def test_finite_system_values_route(tmp_path, capsys):
    good = """
[session]
task = mc-check
order = 0
seed = 4

[action]
builtin = sign_flip_c2

[system]
values = 1, 1
"""
    status, io, _ = run_cli(tmp_path, capsys, good)
    assert status == 0
    # value x at the flip is not a representation: x * (-x) != 1
    status, io, _ = run_cli(tmp_path, capsys, good.replace("1, 1", "1, x"))
    assert status == 1


def test_finite_phase_exprs_route(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = check-cocycle
seed = 4

[action]
builtin = sign_flip_c2

[phase]
exprs = 0, 0
""")
    assert status == 0


def test_phase_exprs_count_mismatch(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = check-cocycle

[action]
builtin = rotations_c4

[phase]
exprs = 0, 0
""")
    assert status == 2
    assert "expected 4 entries" in io.err


def test_solve_reports_cocycle_basis(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = mc-solve
order = 1
seed = 3

[action]
builtin = sign_flip_c2

[basis]
monomials = 2
""")
    assert status == 0
    assert "kernel dimension = 3" in io.out
    assert "cocycle basis vector 2:" in io.out
    assert "1 (1) x^2" in io.out


def test_cohomology_table(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = cohomology
order = 1
seed = 5

[action]
builtin = sign_flip_c2

[basis]
monomials = 2
""")
    assert status == 0
    assert "order 0:" in io.out and "order 1:" in io.out


def test_expand_graded_slots(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = expand
order = 3
seed = 1

[amplitude]
coords = x1, x2
terms = x1*xi2 + x2*x2, xi1*xi2
convention = multi
""")
    assert status == 0
    assert "0 (0,0) x2^2" in io.out
    assert "1 (0,1) x1" in io.out
    assert "3 (1,1) 1" in io.out


@pytest.mark.parametrize("line,message", [
    ("convention = foo", "[amplitude] convention must be 'multi' or 'total', got 'foo'"),
    ("xi_names = k1", "[amplitude] xi_names: expected 2 names, got 1"),
], ids=["convention", "xi_names"])
def test_expand_bad_amplitude_is_a_config_error(tmp_path, capsys, line, message):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = expand
order = 2

[amplitude]
coords = x1, x2
terms = x1 + x2, x1
%s
""" % line)
    assert status == 2
    assert "config error: %s" % message in io.err


def test_verify_numeric_passes(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = verify-numeric
seed = 11

[action]
builtin = galilean

[phase]
expr = m*v*x - m*v*v*t/2

[grid]
dim = 2
points = 64
length = 10
hbar = 1/10

[numeric]
sigma = 1
centers = 0,0 ; 0,0
momenta = 0,0 ; 1/10,-1/20
elements = 1/5 ; -3/20
constants = m:1
unitarity_tol = 1e-8
representation_tol = 1e-7
tail_tol = 1e-7
""")
    assert status == 0
    assert "xi_window" in io.out
    assert "result: PASS" in io.out


def test_reports_are_reproducible(tmp_path, capsys):
    text = """
[session]
task = mc-check
order = 2
seed = 7

[action]
builtin = galilean

[phase]
expr = m*v*x - m*v*v*t/2
"""
    status1, io1, out = run_cli(tmp_path, capsys, text)
    first = read(os.path.join(out, "mc-check.txt"), "rb")
    status2, io2, out = run_cli(tmp_path, capsys, text)
    second = read(os.path.join(out, "mc-check.txt"), "rb")
    assert status1 == status2 == 0
    assert first == second and io1.out == io2.out


def test_config_error_exit_code(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, "[session\ntask = expand\n")
    assert status == 2
    assert "config error: line 1:" in io.err


def test_grid_dimension_mismatch(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = verify-numeric

[action]
builtin = galilean

[phase]
expr = m*v*x

[grid]
dim = 1
points = 32
length = 8
hbar = 1/10

[numeric]
elements = 1/5
""")
    assert status == 2
    assert "does not match" in io.err


@pytest.mark.parametrize("builtin,phase,points,elements,message", [
    ("galilean", "expr = m*v*x", "points = 48", "1/5", "power of two"),
    ("galilean", "expr = m*v*x", "", "1/5", "missing the 'points' key"),
    ("galilean", "expr = m*v*x", "points = 32", "abc", "bad entry 'abc'"),
    ("galilean", "expr = m*v*x", "points = 32", "1/0", "bad entry '1/0'"),
    ("galilean", "expr = m*v*x", "points = 32", "1/5, 2", "expected 1 parameters"),
    ("rotations_c4", "exprs = 0, 0, 0, 0", "points = 32", "7", "outside 0..3"),
    ("rotations_c4", "exprs = 0, 0, 0, 0", "points = 32", "-1", "outside 0..3"),
], ids=["points-48", "points-missing", "element-abc", "element-1/0",
        "element-arity", "index-7", "index--1"])
def test_bad_grid_or_element_is_a_config_error(tmp_path, capsys, builtin, phase,
                                               points, elements, message):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = verify-numeric

[action]
builtin = %s

[phase]
%s

[grid]
dim = 2
%s
length = 8
hbar = 1/10

[numeric]
elements = %s
""" % (builtin, phase, points, elements))
    assert status == 2
    assert "config error:" in io.err and message in io.err


@pytest.mark.parametrize("grid,numeric,message", [
    ("length = 1/0", "", "[grid] length must be a number, got '1/0'"),
    ("length = 8", "sigma = 1e400", "[numeric] sigma must be a number, got '1e400'"),
    ("length = 8", "centers = 1/0,0",
     "[numeric] centers must be a number, got '1/0'"),
    ("length = 8", "constants = m:abc",
     "[numeric] constants must be a number, got 'abc'"),
    ("length = 8", "sigma = 0", "[numeric] sigma must be positive, got '0'"),
    ("length = 8", "sigma = -1", "[numeric] sigma must be positive, got '-1'"),
], ids=["length-1/0", "sigma-1e400", "centers-1/0", "constants-abc", "sigma-0",
        "sigma-negative"])
def test_bad_number_is_a_config_error(tmp_path, capsys, grid, numeric, message):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = verify-numeric

[action]
builtin = galilean

[phase]
expr = m*v*x

[grid]
dim = 2
points = 32
hbar = 1/10
%s

[numeric]
elements = 1/5
%s
""" % (grid, numeric))
    assert status == 2
    assert "config error:" in io.err and message in io.err


@pytest.mark.parametrize("key,value,message", [
    # a third number on the 2-D grid used to be dropped
    ("momenta", "0,0,5 ; 1/10,-1/20",
     "[numeric] momenta: each packet needs 2 numbers, got 3"),
    # a packet that does not decay along the second axis
    ("centers", "0 ; 0,0", "[numeric] centers: each packet needs 2 numbers, got 1"),
    # the tail check alone used to pass the run
    ("elements", "", "[numeric] elements must list at least one element"),
], ids=["momenta-3", "centers-1", "elements-empty"])
def test_bad_packet_or_empty_elements_is_a_config_error(tmp_path, capsys, key,
                                                        value, message):
    numeric = {"centers": "0,0 ; 0,0", "momenta": "0,0 ; 1/10,-1/20",
               "elements": "1/5 ; 1/10 ; -3/20"}
    numeric[key] = value
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = verify-numeric
seed = 11

[action]
builtin = galilean

[phase]
expr = m*v*x - m*v*v*t/2

[grid]
dim = 2
points = 64
length = 10
hbar = 1/10

[numeric]
%s
constants = m:1
""" % "\n".join("%s = %s" % item for item in numeric.items()))
    assert status == 2
    assert "config error: %s" % message in io.err


def test_check_cocycle_on_a_pole_terminates(tmp_path):
    cfg = write(tmp_path, """
[session]
task = check-cocycle
seed = 1

[action]
builtin = galilean

[phase]
expr = 1/(1/x - 1/x)
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    # the check fails as undecided; it must neither hang nor crash
    assert proc.returncode == 1
    assert "result: FAIL" in proc.stdout


def test_verify_numeric_phase_pole_is_a_config_error(tmp_path):
    # v/x has a pole at x = 0, a grid point: the plan's amplitude values are
    # checked when the plan is built, with no numpy warning on the way
    text = read(os.path.join(CONFIGS, "galilean_numeric.cfg"))
    line = "expr = m*v*x - m*v*v*t/2\n"
    assert line in text
    cfg = write(tmp_path, text.replace(line, "expr = m*v*x - m*v*v*t/2 + v/(x)\n"))
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:")
    assert "[phase]" in proc.stderr and "not finite on the grid" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_verify_numeric_map_pole_is_a_config_error(tmp_path):
    # phi^{-1}(x1) = x1 - 1/x1 has its pole at the grid point x1 = 0: the
    # pullback plan refuses the map when it is built, naming [action]
    cfg = write(tmp_path, """
[session]
task = verify-numeric
seed = 1

[action]
coords = x1, x2
params = v
forward = x1 + 1/x1, x2
inverse = x1 - 1/x1, x2
product = v__1 + v__2
param_inverse = -v
param_identity = 0

[phase]
expr = 0

[grid]
dim = 2
points = 32
length = 4
hbar = 1/10

[numeric]
centers = 0,0
momenta = 0,0
elements = 1
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: [action] at ((1)):")
    assert "map is not finite on the grid" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("forward,inverse,phase,message", [
    # phi^{-1} leaves the reals: a complex map is no map of the grid
    ("x1 + v - i*x2, x2", "x1 - v + i*x2, x2", "0", "map must stay real on the grid"),
    # the pole of phi at x1 = 0 reaches the amplitude exp(i x1) o phi first;
    # the map is checked before it, so the finite phase is not blamed
    ("x1 + 1/x1, x2", "x1 - 1/x1, x2", "x1", "map is not finite on the grid"),
    ("x1 + 1/x1, x2", "x1 - 1, x2", "x1", "map is not finite on the grid"),
], ids=["complex-inverse", "pole-with-phase", "forward-pole-only"])
def test_verify_numeric_bad_map_is_a_config_error(tmp_path, forward, inverse, phase,
                                                  message):
    cfg = write(tmp_path, """
[session]
task = verify-numeric
seed = 1

[action]
coords = x1, x2
params = v
forward = %s
inverse = %s
product = v__1 + v__2
param_inverse = -v
param_identity = 0

[phase]
expr = %s

[grid]
dim = 2
points = 32
length = 4
hbar = 1/10

[numeric]
centers = 0,0
momenta = 0,0
elements = 1
""" % (forward, inverse, phase))
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: [action] at ((1)): " + message)
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("task,forward,inverse,phase,status,expected", [
    # maps whose composite divides by a symbolic zero compose to no map
    ("check-action", "exp(1/x1)", "0", "0", 1, "FAIL     forward/inverse pairs [exact]"),
    # exp(x1) overflows at some sampled points, which are drawn again
    ("check-action", "exp(x1)", "exp(x1) + i/x1", "0", 1, "result: FAIL"),
    # e^{i S} = e^{sinh 7} is finite, but too large to apply to a packet
    ("verify-numeric", "exp(sin(8))", "5", "sin(7/i)", 2,
     "config error: [phase]: operator application produced non-finite values"),
    # phi sends every point to the pole of the phase
    ("verify-numeric", "exp(x1) - exp(x1)", "x1 - v", "1/x1", 2,
     "config error: [phase] at ((1)): amplitude is not finite on the grid"),
    # the product element v = 2 of the composition check is a pole of S
    ("verify-numeric", "x1 + v", "x1 - v", "1/(v - 2)", 2,
     "config error: [phase] expr: division by zero at ((2))"),
], ids=["composite-divides-by-zero", "sample-overflows", "application-overflows",
        "map-onto-a-pole", "phase-pole-at-an-element"])
def test_fuzzer_crash_classes_end_cleanly(tmp_path, task, forward, inverse, phase,
                                          status, expected):
    cfg = write(tmp_path, """
[session]
task = %s
seed = 1

[action]
coords = x1
params = v
forward = %s
inverse = %s
product = v__1 + v__2
param_inverse = -v
param_identity = 0

[phase]
expr = %s

[grid]
dim = 1
points = 16
length = 4
hbar = 1/10

[numeric]
centers = 0
momenta = 0
elements = 1
""" % (task, forward, inverse, phase))
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == status, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert expected in (proc.stdout if status == 1 else proc.stderr.splitlines()[-1])


@pytest.mark.parametrize("terms", ["x1/(xi1)", "xi1/(xi1)", "x1, 1/(xi1 - xi1*xi1)"])
def test_expand_term_singular_at_xi_zero_is_a_config_error(tmp_path, terms):
    # the series is expanded at xi = 0, where each of these divides by zero
    # (the second removably, the third in its second term)
    cfg = write(tmp_path, """
[session]
task = expand
order = 2
seed = 1

[amplitude]
coords = x1
terms = %s
""" % terms)
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: [amplitude] terms:")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("key,forward,inverse", [
    ("forward", "t + v/(v), x", "t - v, x"),
    ("forward", "t/(v), x", "t*v, x"),
    ("inverse", "t + v, x", "t - v/(v), x"),
], ids=["forward_removable", "forward_pole", "inverse_removable"])
def test_check_action_map_singular_at_the_identity_is_a_config_error(
        tmp_path, key, forward, inverse):
    # check-action first evaluates the map at the identity parameter v = 0
    cfg = write(tmp_path, """
[session]
task = check-action
seed = 1

[action]
coords = t, x
params = v
forward = %s
inverse = %s
product = v__1 + v__2
param_inverse = -v
param_identity = 0
""" % (forward, inverse))
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(
        "config error: [action] %s: division by zero at v = 0" % key)
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(tmp_path / "out")


def _run_subprocess(tmp_path, cfg, timeout):
    src = os.path.dirname(os.path.dirname(quantact.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "quantact.cli", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("task,order,degree,slots", [
    # the monomial list alone would not fit in memory
    ("cohomology", 1, 100000000, None),
    # 15 monomials x 15 basis elements on |G|^3 = 64 triples
    ("cohomology", 4, 4, 14400),
    ("mc-solve", 100000000, 1, None),
], ids=["huge_basis", "order4_degree4", "huge_order"])
def test_slot_budget_refuses_before_assembly(tmp_path, task, order, degree, slots):
    cfg = write(tmp_path, """
[session]
task = %s
order = %d
seed = 1

[action]
builtin = rotations_c4

[basis]
monomials = %d
""" % (task, order, degree))
    proc = _run_subprocess(tmp_path, cfg, timeout=20)
    assert proc.returncode == 2
    assert "more than the budget of %d" % cli.SLOT_BUDGET in proc.stderr
    if slots is not None:
        assert "= %d slots" % slots in proc.stderr
    assert not os.path.exists(tmp_path / "out")


def test_expand_refuses_a_huge_order_before_any_derivative(tmp_path):
    cfg = write(tmp_path, """
[session]
task = expand
order = 100000000

[amplitude]
coords = x1, x2
terms = x1*xi2 + x2*x2, xi1*xi2
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=20)
    assert proc.returncode == 2
    assert ("expand at order 100000000 in 2 coordinates needs 5000000150000001 "
            "multi-indices, more than the budget of %d" % cli.SLOT_BUDGET) in proc.stderr
    assert not os.path.exists(tmp_path / "out")


def test_expand_at_the_budget_edge_finishes(tmp_path):
    # C(1 + 9999, 9999) = 10000 multi-indices is admitted; only the two
    # nonzero terms of the series are differentiated
    cfg = write(tmp_path, """
[session]
task = expand
order = 9999

[amplitude]
coords = x1
terms = x1*xi1 + xi1^2, x1
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.endswith("symbol order=9999 dim=1\n1 (0) x1\n1 (1) x1\n2 (2) 1\n")


def test_expand_of_a_quotient_amplitude_stays_small(tmp_path):
    # each frequency derivative of 1/(1 + x1*xi1) raises the power of the
    # denominator by one; a squared denominator would double it every time
    cfg = write(tmp_path, """
[session]
task = expand
order = 16

[amplitude]
coords = x1
terms = 1/(1 + x1*xi1)
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=30)
    assert proc.returncode == 0
    sym = load_symbol(proc.stdout[proc.stdout.index("symbol order="):])
    x1 = Expr.var("x1")
    for n in range(17):
        assert is_zero(sym.comps[n].coeffs[(n,)] - (-x1) ** n).ok


def test_slot_budget_admits_the_worked_example():
    # configs/cohomology_c4.cfg: 6 alphas x 6 basis elements x 4^3 = 2304
    # slots; at order 6 there are 28 alphas, 10752 slots
    cfg = SessionConfig.load(os.path.join(CONFIGS, "cohomology_c4.cfg"))
    action = cli._load_action(cfg)
    assert len(cli._basis(cfg, action, 3)) == 6
    cfg.order = 6
    with pytest.raises(ConfigError, match="= 10752 slots"):
        cli._basis(cfg, action, 3)


def test_closed_tree_phase_with_large_terms_passes(tmp_path, capsys):
    # the polynomial terms are large at the sample points and cancel; the
    # rounding left in their float sum is relative to them, not absolute
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = check-cocycle
seed = 5

[action]
builtin = galilean

[phase]
expr = m*v*x - m*v*v*t/2 + v*t/(1+t*t)
""")
    assert status == 0
    assert "FAIL" not in io.out and "result: PASS" in io.out


# ---------------------------------------------------------------------------
# monomials are packed ints, paired with an exp argument when they hold one


def test_basis_with_exp_atoms_and_plain_monomials(tmp_path, capsys):
    # the basis mixes monomials with and without an exp atom, which do not
    # order against each other; its columns keep their first-seen order
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = cohomology
seed = 1

[action]
builtin = sign_flip_c2

[basis]
exprs = exp(x) + exp(-x), x*x, 1
""", ["--order", "0"])
    assert status == 0, io.err
    assert io.out.endswith("pass     coefficient basis closed under the action [exact]\n"
                           "result: PASS (1 checks)\n"
                           "order 0: H0=3 H1=0 H2=0\n")


def test_expand_keeps_a_large_power(tmp_path, capsys):
    status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = expand
seed = 1

[amplitude]
coords = x1
terms = x1^40000*xi1
""")
    assert status == 0, io.err
    assert io.out == ("quantact expand\nconfig = run.cfg\nseed = 1\n\n"
                      "== amplitude expansion ==\nconvention = multi\norder = 1\n"
                      "terms = 1\nresult: PASS (0 checks)\n"
                      "symbol order=1 dim=1\n1 (1) x1^40000\n")


@pytest.mark.parametrize("section,text", [
    ("amplitude", "[amplitude]\ncoords = x1\nterms = x1^2147483648*xi1"),
    ("amplitude", "[amplitude]\ncoords = x1\nterms = x1^2147483647*x1"),
    ("amplitude", "[amplitude]\ncoords = x1\nterms = (1/(1 + x1))^2147483649"),
    ("amplitude", "[amplitude]\ncoords = x1\nterms = 2^2147483648"),
    ("phase", "[action]\nbuiltin = galilean\n[phase]\nexpr = (x + v)^2147483648"),
    ("basis", "[action]\nbuiltin = sign_flip_c2\n[basis]\nexprs = 1, x^2147483648"),
])
def test_a_power_past_two_to_the_31_is_a_config_error(tmp_path, capsys, section, text):
    task = {"amplitude": "expand", "phase": "check-cocycle", "basis": "cohomology"}
    status, io, out = run_cli(tmp_path, capsys, "[session]\ntask = %s\nseed = 1\n%s\n"
                              % (task[section], text))
    assert status == 2
    key = {"amplitude": "terms", "phase": "expr", "basis": "exprs"}[section]
    assert io.err.startswith("config error: [%s] %s: power " % (section, key))
    assert "exceeds 2^31 - 1" in io.err and not os.path.exists(out)


# ---------------------------------------------------------------------------
# verify-numeric builds one grid plan per group element


def count_plans(monkeypatch, tmp_path, text):
    """(plans built, most plans alive at once) in one verify-numeric run."""
    built = []
    alive = []
    real = cli.phase_system_plan

    def counting(*args, **kwargs):
        plan = real(*args, **kwargs)
        built.append(weakref.ref(plan))
        alive.append(sum(ref() is not None for ref in built))
        return plan

    monkeypatch.setattr(cli, "phase_system_plan", counting)
    cfg = SessionConfig.load(write(tmp_path, text), out=str(tmp_path / "out"))
    status, report = cli.run(cfg)
    assert status == 0, report
    return len(built), max(alive)


def test_verify_numeric_builds_one_plan_per_element(monkeypatch, tmp_path):
    # elements 1/5, 1/10, -3/20: three element plans, then the six pairs
    # have five new products, since 1/10 + 1/10 = 1/5 reuses an element's
    text = read(os.path.join(CONFIGS, "galilean_numeric.cfg"))
    assert "elements = 1/5 ; 1/10 ; -3/20" in text
    assert "centers = 0,0 ; 0,0\n" in text
    built, alive = count_plans(monkeypatch, tmp_path, text)
    assert built == 3 + 5
    assert alive <= 3 + 1
    # the count does not depend on the number of packets
    one = text.replace("centers = 0,0 ; 0,0\n", "centers = 0,0\n").replace(
        "momenta = 0,0 ; 1/10,-1/20\n", "momenta = 0,0\n")
    three = text.replace("centers = 0,0 ; 0,0\n", "centers = 0,0 ; 0,0 ; 1,-1\n").replace(
        "momenta = 0,0 ; 1/10,-1/20\n", "momenta = 0,0 ; 1/10,-1/20 ; 0,1/20\n")
    for variant in (one, three):
        assert variant != text
        assert count_plans(monkeypatch, tmp_path, variant) == (built, alive)


def count_applications(monkeypatch, tmp_path, text):
    """Plan applications, T_g psi, in one verify-numeric run."""
    applied = []
    real = cli.phase_system_plan

    def counting(*args, **kwargs):
        plan = real(*args, **kwargs)

        def apply(psi):
            applied.append(1)
            return plan(psi)

        return apply

    monkeypatch.setattr(cli, "phase_system_plan", counting)
    cfg = SessionConfig.load(write(tmp_path, text), out=str(tmp_path / "out"))
    status, report = cli.run(cfg)
    assert status == 0, report
    return len(applied)


def test_verify_numeric_applies_each_element_once_per_packet(monkeypatch, tmp_path):
    # |E| |P| images, then per pair T_{g1} on the images and T_{g1 g2} on
    # the packets: 3*2 + 2*6*2 = 30, where applying T_{g2} anew per pair took 42
    text = read(os.path.join(CONFIGS, "galilean_numeric.cfg"))
    assert "elements = 1/5 ; 1/10 ; -3/20" in text
    assert count_applications(monkeypatch, tmp_path, text) == 30
    one = text.replace("centers = 0,0 ; 0,0\n", "centers = 0,0\n").replace(
        "momenta = 0,0 ; 1/10,-1/20\n", "momenta = 0,0\n")
    assert one != text
    assert count_applications(monkeypatch, tmp_path, one) == 3 * 1 + 2 * 6 * 1


@pytest.mark.parametrize("task,line", [
    ("cohomology", "cohomology not computed"),
    ("mc-solve", "correction not computed"),
])
def test_non_closed_basis_stops_after_the_closure_check(tmp_path, capsys,
                                                        task, line):
    # x alone is not closed under quarter turns: its pullbacks are +-y
    status, io, out = run_cli(tmp_path, capsys, """
[session]
task = %s
order = 1
seed = 5

[action]
builtin = rotations_c4

[basis]
exprs = x
""" % task)
    assert status == 1
    assert "FAIL     coefficient basis closed under the action" in io.out
    assert "result: FAIL" in io.out
    assert line in io.out
    assert read(os.path.join(out, task + ".txt")) == io.out


@pytest.mark.parametrize("basis,message", [
    ("monomials = -1", "monomials must be >= 0"),
    ("exprs = x, 2*x", "linearly dependent"),
])
def test_bad_basis_is_a_config_error(tmp_path, capsys, basis, message):
    for task in ("cohomology", "mc-solve"):
        status, io, _ = run_cli(tmp_path, capsys, """
[session]
task = %s
order = 1

[action]
builtin = sign_flip_c2

[basis]
%s
""" % (task, basis))
        assert status == 2
        assert message in io.err
