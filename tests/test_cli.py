"""Config parsing and end-to-end runs of the command line tasks."""

import builtins
import os
import subprocess
import sys
import time
import weakref

import pytest

import quantact
from quantact import cli, expr, numfio
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


def config_error(argv, capsys):
    """The message of a run that exits 2 on a config error, with no traceback."""
    assert main(argv) == 2
    io = capsys.readouterr()
    assert io.out == "" and io.err.startswith("config error: ")
    return io.err


def test_directory_as_config_is_a_config_error(tmp_path, capsys):
    err = config_error(["--config", str(tmp_path)], capsys)
    assert err.startswith("config error: cannot read config file %s: " % tmp_path)


def test_config_that_is_not_text_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfe[session]\ntask = expand\n")
    err = config_error(["--config", str(path)], capsys)
    assert err.startswith("config error: cannot read config file %s: 'utf-8' codec " % path)


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "x")
    err = config_error(["--config", os.path.join(CONFIGS, "expand_demo.cfg"), "--out", out],
                       capsys)
    assert err.startswith("config error: cannot write report %s: "
                          % os.path.join(out, "expand.txt"))


EXPAND_DEMO = os.path.join(CONFIGS, "expand_demo.cfg")


def test_a_rewrite_over_a_longer_report_leaves_the_new_text(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "expand.txt").write_text("stale report line\n" * 1000)
    assert main(["--config", EXPAND_DEMO, "--out", str(out)]) == 0
    assert read(str(out / "expand.txt")) == capsys.readouterr().out


def test_a_report_path_linked_to_dev_null_is_written(tmp_path, capsys):
    # a device is written but not truncated
    out = tmp_path / "out"
    out.mkdir()
    (out / "expand.txt").symlink_to(os.devnull)
    assert main(["--config", EXPAND_DEMO, "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("quantact expand\n")
    assert os.path.islink(out / "expand.txt")


def test_a_report_path_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    report = tmp_path / "out" / "expand.txt"
    report.mkdir(parents=True)
    err = config_error(["--config", EXPAND_DEMO, "--out", str(tmp_path / "out")], capsys)
    assert err.startswith("config error: cannot write report %s: " % report)


def test_run_overwrites_its_report_without_truncating_it(tmp_path, monkeypatch):
    # truncating a non-empty file before the write can cost more than the
    # write: no open during run may truncate, by mode "w" on a path or by
    # O_TRUNC, and the report is still rewritten whole
    opened, truncating = [], []
    real_open, real_os_open = builtins.open, os.open

    def watched_open(file, mode="r", *args, **kwargs):
        opened.append(file)
        if "w" in mode and not isinstance(file, int):   # an fd is not truncated
            truncating.append((file, mode))
        return real_open(file, mode, *args, **kwargs)

    def watched_os_open(path, flags, *args, **kwargs):
        opened.append(path)
        if flags & os.O_TRUNC:
            truncating.append((path, flags))
        return real_os_open(path, flags, *args, **kwargs)

    cfg = SessionConfig.load(EXPAND_DEMO, out=str(tmp_path))
    report = str(tmp_path / "expand.txt")
    with open(report, "w") as fh:
        fh.write("stale report line\n" * 1000)
    monkeypatch.setattr(builtins, "open", watched_open)
    monkeypatch.setattr(os, "open", watched_os_open)
    status, text = cli.run(cfg)
    monkeypatch.undo()
    assert report in opened and truncating == []
    assert (status, read(report)) == (0, text)


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


CUSTOM_ACTION = {"coords": "t, x", "params": "v", "forward": "t + v, x",
                 "inverse": "t - v, x", "product": "v__1 + v__2",
                 "param_inverse": "-v", "param_identity": "0"}


@pytest.mark.parametrize("key", ["coords", "forward", "inverse", "product",
                                 "param_inverse", "param_identity"])
def test_custom_action_missing_a_key_is_a_config_error(tmp_path, capsys, key):
    body = "".join("%s = %s\n" % kv for kv in CUSTOM_ACTION.items() if kv[0] != key)
    status, io, out = run_cli(tmp_path, capsys,
                              "[session]\ntask = check-action\n\n[action]\n" + body)
    assert status == 2
    assert io.err == "config error: [action] is missing the %r key\n" % key
    assert not os.path.exists(out)


def test_custom_action_with_every_key_passes(tmp_path, capsys):
    body = "".join("%s = %s\n" % kv for kv in CUSTOM_ACTION.items())
    status, io, _ = run_cli(tmp_path, capsys,
                            "[session]\ntask = check-action\n\n[action]\n" + body)
    assert status == 0, io.out


def _run_subprocess(tmp_path, cfg, timeout):
    src = os.path.dirname(os.path.dirname(quantact.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "quantact.cli", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=timeout)


ACTION_AT_TOP_POWER = """coords = x1
params = v
forward = v^2147483647
inverse = x1
product = v__1 + v__2
param_inverse = -v
param_identity = 0
"""


@pytest.mark.parametrize("task,order,degree,slots", [
    # the monomial list alone would not fit in memory
    ("cohomology", 1, 100000000, None),
    # 45 monomials x 10 basis elements on the (|G| - 1)^3 = 27 e-free triples
    ("cohomology", 8, 3, 12150),
    ("mc-solve", 100000000, 1, None),
], ids=["huge_basis", "order8_degree3", "huge_order"])
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
    assert proc.stderr.startswith("config error: [basis] %s at order %d over a basis of "
                                  % (task, order))
    assert proc.stderr.endswith("slots, more than the budget of %d\n" % cli.SLOT_BUDGET)
    if slots is not None:
        assert "= %d slots" % slots in proc.stderr
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("order,per_h", [(200, 2727101), (2000, 2672671001)])
def test_symbol_budget_refuses_high_orders_before_assembly(tmp_path, order, per_h):
    # one slot, on 1 e-free triple, at every order, but the slot maps build
    # (k + 1) stars of k + 1 slots at each order k <= n: sum (k + 1)^2 slots
    cfg = write(tmp_path, """
[session]
task = cohomology
order = %d
seed = 1

[action]
builtin = sign_flip_c2

[basis]
monomials = 0
""" % order)
    proc = _run_subprocess(tmp_path, cfg, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("config error: [basis] cohomology at order %d needs 1 x %d = %d "
                           "symbol slots in its slot maps, more than the budget of %d\n"
                           % (order, per_h, per_h, cli.SYMBOL_BUDGET))
    assert not os.path.exists(tmp_path / "out")


def test_symbol_budget_edges(tmp_path):
    # cohomology runs orders 0..n: sum (k + 1)^2 is 98021 at n = 65 and
    # 102510 at n = 66; mc-solve runs order n alone: (n + 1)^2
    cfg = SessionConfig.load(write(tmp_path, """
[session]
task = cohomology

[action]
builtin = sign_flip_c2

[basis]
monomials = 0
"""))
    action = cli._load_action(cfg)
    for task, order, row_degree, orders in (("cohomology", 65, 3, lambda n: range(n + 1)),
                                            ("mc-solve", 315, 2, lambda n: [n])):
        cfg.task, cfg.order = task, order
        assert len(cli._basis(cfg, action, row_degree, orders(order))) == 1
        cfg.order += 1
        with pytest.raises(ConfigError, match=r"\[basis\] %s at order %d needs 1 x"
                                              % (task, order + 1)):
            cli._basis(cfg, action, row_degree, orders(order + 1))


@pytest.mark.parametrize("section,body,stderr", [
    ("action", ACTION_AT_TOP_POWER,
     "[action] forward and inverse: composing the maps: power 2147483647 of a 2-bit "
     "coefficient may pass %d bits\n"),
    ("amplitude", "coords = x1\nterms = 3^20000*xi1\n",
     "[amplitude] terms: power 20000 of a 2-bit coefficient may pass %d bits (at position 1)\n"
     "  3^20000*xi1\n   ^\n"),
    ("amplitude", "coords = x1\nterms = 3^4600*3^4600*xi1\n",
     "[amplitude] terms: a product of coefficients of 7291 and 7291 bits may pass %d bits "
     "(at position 6)\n  3^4600*3^4600*xi1\n        ^\n"),
    ("amplitude", "coords = x1\nterms = (3^4600*x1 + 1)^2\n",
     "[amplitude] terms: power 2 of a 2-term polynomial with 7291-bit coefficients may pass "
     "%d bits (at position 15)\n  (3^4600*x1 + 1)^2\n                 ^\n"),
    ("amplitude", "coords = x1\nterms = (3^4600*x1 + 1)*(3^4600*x1 + 1)\n",
     "a coefficient part of 14582 bits is too wide to render (more than %d)\n"),
], ids=["parameter_sample", "expand_term", "product_of_powers", "multi_term_power",
        "multi_term_product"])
def test_a_power_past_the_bit_budget_is_a_config_error(tmp_path, section, body, stderr):
    # a sampled parameter raised to 2^31 - 1 ran for minutes, and 3^20000
    # was computed and then failed to render in the report, as did 3^9200,
    # the product of two admitted powers, and the square of 3^4600 x1 + 1;
    # a product of two-term factors is refused where 3^9200 would render
    task = "check-action" if section == "action" else "expand"
    cfg = write(tmp_path, "[session]\ntask = %s\nseed = 1\n\n[%s]\n%s" % (task, section, body))
    proc = _run_subprocess(tmp_path, cfg, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == "config error: " + stderr % expr.BIT_BUDGET
    assert not os.path.exists(tmp_path / "out")


def test_a_power_of_exp_atoms_past_the_term_budget_is_a_config_error(tmp_path):
    # 861 terms, admitted while exp arguments did not count, each with an
    # exp argument that composing the maps made an 861-term sum: check-action
    # ran for minutes.  The 3 argument terms of the base count now
    cfg = write(tmp_path, "[session]\ntask = check-action\nseed = 1\n\n[action]\n"
                          "coords = x1\nparams = v\nforward = (cos(x1) + exp(i))^40\n"
                          "inverse = cos(v)\nproduct = v__1 + v__2\nparam_inverse = -v\n"
                          "param_identity = 0\n")
    proc = _run_subprocess(tmp_path, cfg, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("config error: [action]: power 40 of a 3-term polynomial with 3 "
                           "terms in exp arguments may have more than %d terms (at position 18)\n"
                           "  (cos(x1) + exp(i))^40\n                    ^\n" % expr.TERM_BUDGET)
    assert not os.path.exists(tmp_path / "out")


def test_composing_maps_past_the_term_budget_is_a_config_error(tmp_path):
    # each map parses to at most 42 terms; check-action composes them, which
    # would raise the 41 terms of a sampled inverse to the 40th power
    cfg = write(tmp_path, """
[session]
task = check-action
seed = 1

[action]
coords = x1
params = v
forward = x1 + v*(x1 + 1)^40
inverse = x1 - v*(x1 + 1)^40
product = v__1 + v__2
param_inverse = -v
param_identity = 0
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr == ("config error: [action] forward and inverse: composing the maps: "
                           "power 40 of a 41-term polynomial may have more than %d terms\n"
                           % expr.TERM_BUDGET)
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
    assert proc.stderr == ("config error: [amplitude] expand at order 100000000 in 2 "
                           "coordinates needs C(2 + 100000000, 100000000) = 5000000150000001 "
                           "multi-indices, more than the budget of %d\n" % cli.SLOT_BUDGET)
    assert not os.path.exists(tmp_path / "out")


def test_expand_at_the_budget_edge_finishes(tmp_path):
    # C(1 + 11999, 11999) = 12000 multi-indices is admitted; only the two
    # nonzero terms of the series are differentiated
    cfg = write(tmp_path, """
[session]
task = expand
order = 11999

[amplitude]
coords = x1
terms = x1*xi1 + xi1^2, x1
""")
    proc = _run_subprocess(tmp_path, cfg, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.endswith("symbol order=11999 dim=1\n1 (0) x1\n1 (1) x1\n2 (2) 1\n")


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


def test_slot_budget_admits_the_worked_example(monkeypatch):
    # configs/cohomology_c4.cfg on the 3^3 e-free triples of the normalized
    # complex: 6 alphas x 6 basis elements x 27 = 972 slots; at order 10 there
    # are 66 alphas, 10692 slots, and at order 11, 78 alphas, 12636 slots
    cfg = SessionConfig.load(os.path.join(CONFIGS, "cohomology_c4.cfg"))
    action = cli._load_action(cfg)
    assert len(cli._basis(cfg, action, 3, range(cfg.order + 1))) == 6
    cfg.order = 10
    assert len(cli._basis(cfg, action, 3, range(cfg.order + 1))) == 6
    cfg.order = 11
    with pytest.raises(ConfigError, match=r"\[basis\] cohomology at order 11 over a "
                                          r"basis of 6 elements needs 78 x 6 x 3\^3 = "
                                          r"12636 slots, more than the budget of 12000"):
        cli._basis(cfg, action, 3, range(cfg.order + 1))
    # a twist that is not unital keeps the full complex, all 4^3 triples
    monkeypatch.setattr(cli, "_is_unital", lambda action, p0: False)
    cfg.order = 6
    assert len(cli._basis(cfg, action, 3, range(cfg.order + 1))) == 6
    cfg.order = 7
    with pytest.raises(ConfigError, match=r"36 x 6 x 4\^3 = 13824 slots"):
        cli._basis(cfg, action, 3, range(cfg.order + 1))



def galilean_numeric(points=64, packets=2, elements="1/5 ; 1/10 ; -3/20"):
    """configs/galilean_numeric.cfg on ``points`` per axis with ``packets``
    packets at the origin and the given elements."""
    text = read(os.path.join(CONFIGS, "galilean_numeric.cfg"))
    for old, new in (("points = 64\n", "points = %d\n" % points),
                     ("centers = 0,0 ; 0,0\n", "centers = %s\n" % " ; ".join(["0,0"] * packets)),
                     ("momenta = 0,0 ; 1/10,-1/20\n",
                      "momenta = %s\n" % " ; ".join(["0,0"] * packets)),
                     ("elements = 1/5 ; 1/10 ; -3/20\n", "elements = %s\n" % elements)):
        assert old in text
        text = text.replace(old, new)
    return text


class GridArrayBuilt(Exception):
    """Raised in place of the first packet a verify-numeric run builds."""


def no_grid_arrays(monkeypatch):
    def refuse(*args, **kwargs):
        raise GridArrayBuilt()

    monkeypatch.setattr(numfio, "gaussian", refuse)
    monkeypatch.setattr(numfio, "phase_system_plan", refuse)


@pytest.mark.parametrize("points,elements,stderr", [
    # a 65536^2 float array of 32 GiB for each packet's exponent
    (65536, "1/5 ; 1/10 ; -3/20",
     "[grid] verify-numeric on 65536^2 points with 2 packets and 3 distinct elements needs "
     "4294967296 x 2 x (2 + 3 + 1) = 51539607552 cells alive at once, more than the budget "
     "of 16777216"),
    # 80200 pairs, each a product's plan and two applications per packet
    (64, " ; ".join("%d/%d" % (1 + k % 7, 20 + k) for k in range(400)),
     "[numeric] verify-numeric on 64^2 points with 400 elements and 2 packets needs "
     "max(4096, 16384) x (80200 + 400) x 2 = 2641100800 cells of plan applications, more "
     "than the budget of 33554432"),
], ids=["points_65536", "elements_400"])
def test_verify_numeric_budgets_refuse_before_any_grid_array(monkeypatch, tmp_path, capsys,
                                                             points, elements, stderr):
    no_grid_arrays(monkeypatch)
    start = time.perf_counter()
    status, io, out = run_cli(tmp_path, capsys, galilean_numeric(points, 2, elements))
    assert time.perf_counter() - start < 1
    assert status == 2
    assert io.err == "config error: %s\n" % stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("points,packets,elements,refused", [
    # cells x 2 x (packets + distinct elements + 1) <= 2^24 = 1024^2 x 2 x 8
    (1024, 6, "1/5", None),
    (1024, 7, "1/5", "[grid]"),
    # repeated elements count once in the cells and every time in the pairs:
    # (3 pairs + 2 elements) x 6 packets x 1024^2 <= 2^25
    (1024, 6, "1/5 ; 1/5", None),
    # max(cells, 2^14) x (pairs + elements) x packets <= 2^25
    (1024, 2, "1/5 ; 1/10 ; -3/20 ; 1/20", None),
    (1024, 2, "1/5 ; 1/10 ; -3/20 ; 1/20 ; -1/20", "[numeric]"),
    (1, 1, " ; ".join("1/%d" % k for k in range(1, 63)), None),
    (1, 1, " ; ".join("1/%d" % k for k in range(1, 64)), "[numeric]"),
], ids=["cells_edge", "cells_past", "distinct", "apply_edge", "apply_past",
        "one_cell_edge", "one_cell_past"])
def test_verify_numeric_budget_edges(monkeypatch, tmp_path, points, packets, elements,
                                     refused):
    # the admitted edge reaches its first packet; one more is refused before it
    no_grid_arrays(monkeypatch)
    cfg = SessionConfig.load(write(tmp_path, galilean_numeric(points, packets, elements)),
                             out=str(tmp_path / "out"))
    if refused is None:
        with pytest.raises(GridArrayBuilt):
            cli.run(cfg)
    else:
        with pytest.raises(ConfigError, match=r"^\%s verify-numeric on %d\^2 points" % (
                refused, points)):
            cli.run(cfg)


def test_a_dense_pullback_past_the_guard_is_a_config_error(tmp_path, capsys):
    # an off-lattice translation on both axes takes the band-limited path,
    # whose (64^2)^2 mode matrix passes numfio.DENSE_GUARD: a traceback with
    # exit 1 before the guard had its own error class
    status, io, out = run_cli(tmp_path, capsys, """
[session]
task = verify-numeric
seed = 1

[action]
builtin = translations_2d

[phase]
expr = 0

[grid]
dim = 2
points = 64
length = 10
hbar = 1/10

[numeric]
elements = 1/3,1/7
""")
    assert status == 2
    assert io.err == ("config error: [grid] at ((1/3,1/7)): pullback needs a structured "
                      "(permutation or shear) map at this grid size\n")
    assert not os.path.exists(out)

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
    real = numfio.phase_system_plan

    def counting(*args, **kwargs):
        plan = real(*args, **kwargs)
        built.append(weakref.ref(plan))
        alive.append(sum(ref() is not None for ref in built))
        return plan

    monkeypatch.setattr(numfio, "phase_system_plan", counting)
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
    real = numfio.phase_system_plan

    def counting(*args, **kwargs):
        plan = real(*args, **kwargs)

        def apply(psi):
            applied.append(1)
            return plan(psi)

        return apply

    monkeypatch.setattr(numfio, "phase_system_plan", counting)
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


def test_verify_numeric_reports_do_not_depend_on_the_worker(monkeypatch, tmp_path):
    # every result lands in its place wherever it was computed: the reports
    # with the default worker and with none are the same bytes, for the
    # config and for a 3-packet, 3-element variant of it
    default = numfio.WORKERS
    assert default == min(1, len(os.sched_getaffinity(0)) - 1)
    text = read(os.path.join(CONFIGS, "galilean_numeric.cfg"))
    three = text.replace("centers = 0,0 ; 0,0\n", "centers = 0,0 ; 0,0 ; 1,-1\n").replace(
        "momenta = 0,0 ; 1/10,-1/20\n", "momenta = 0,0 ; 1/10,-1/20 ; 0,1/20\n")
    assert three != text and "elements = 1/5 ; 1/10 ; -3/20" in three
    for variant in (text, three):
        reports = []
        for workers in (default, 0):
            monkeypatch.setattr(numfio, "WORKERS", workers)
            out = tmp_path / ("out%d" % workers)
            status, report = cli.run(SessionConfig.load(write(tmp_path, variant), out=str(out)))
            assert status == 0, report
            reports.append((report, read(out / "verify-numeric.txt", "rb")))
        assert reports[0] == reports[1]
    if default:
        assert numfio._worker is not None and numfio._worker.is_alive()


def test_verify_numeric_names_the_first_element_whose_plan_fails(monkeypatch, tmp_path):
    # boosts leave t alone, so the pole t = 50 v is the grid point t = 5 for
    # v = 1/10 and t = -7.5 for v = -3/20, and is off the grid for v = 1/5:
    # two element plans fail, and the error names the first in element
    # order, with the worker as without it
    text = read(os.path.join(CONFIGS, "galilean_numeric.cfg"))
    line = "expr = m*v*x - m*v*v*t/2\n"
    cfg = write(tmp_path, text.replace(line, "expr = m*v*x - m*v*v*t/2 + 1/(t - 50*v)\n"))
    errors = []
    for workers in (numfio.WORKERS, 0):
        monkeypatch.setattr(numfio, "WORKERS", workers)
        with pytest.raises(ConfigError) as info:
            cli.run(SessionConfig.load(cfg, out=str(tmp_path / "out")))
        errors.append(str(info.value))
    assert errors == ["[phase] at ((1/10)): amplitude is not finite on the grid"] * 2


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
