"""Config parsing and end-to-end runs of the command line tasks."""

import os
import subprocess
import sys

import pytest

import quantact
from quantact.cli import ConfigError, SessionConfig, main, parse_config


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
    src = os.path.dirname(os.path.dirname(quantact.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quantact.cli", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    # the check fails as undecided; it must neither hang nor crash
    assert proc.returncode == 1
    assert "result: FAIL" in proc.stdout


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
