"""A seeded fuzzer over the config grammar: every config ends with exit 0, 1
or 2 and no traceback.

Expressions are drawn from the text grammar of ``quantact.expr``: + - * /,
^ with exponents up to 2^31 + 1, exp, sin and cos over the task's names and
small integers.  The draws fill the terms of an ``expand`` config and the
forward and inverse maps of a config-defined action, which ``check-action``
and a one-dimensional ``verify-numeric`` run.  Each config runs in process
through ``cli.main``; an uncaught exception fails the test with its
traceback.

Exponents of 2^31 and more are refused when they are parsed, whatever their
base.  40 is drawn on any subexpression, and a map may be the 40th power of
a sum of two polynomials or exp atoms: ``expr.TERM_BUDGET`` refuses, as a
config error, a power or a substituted monomial that may outgrow it, the
terms of exp arguments counted in.
Grid sizes 2^k per axis, k up to 40, and packet and element counts are
drawn on both sides of ``cli.CELL_BUDGET`` and ``cli.APPLY_BUDGET``: a draw
past either is refused as a config error before any packet or plan is built.
2^31 - 1, the largest power a variable holds, is drawn on any name in
``expand`` terms and on the parameter of the maps, which takes a sampled
rational to that power: ``expr.BIT_BUDGET`` refuses, as a config error, a
power whose coefficient may outgrow it.
"""

import contextlib
import io
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from quantact import cli, numfio  # noqa: E402
from quantact.cli import main  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                               database=None)
EXPONENTS = [-1, 0, 1, 2, 3, 40, 2 ** 31, 2 ** 31 + 1]
TOP_POWER = 2 ** 31 - 1


def expressions(names, top_names=()):
    """Grammar text over ``names``, with name^(2^31 - 1) atoms over ``top_names``."""
    atoms = [st.sampled_from(names), st.integers(0, 9).map(str), st.just("i")]
    if top_names:
        atoms.append(st.sampled_from(top_names).map(lambda n: "%s^%d" % (n, TOP_POWER)))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: "(%s %s %s)" % t),
            st.tuples(inner, st.sampled_from(EXPONENTS)).map(lambda t: "(%s)^%d" % t),
            st.tuples(st.sampled_from(["exp", "sin", "cos"]), inner).map(
                lambda t: "%s(%s)" % t))

    return st.recursive(st.one_of(*atoms), extend, max_leaves=5)


def maps(names):
    """Map components: grammar text with the parameter v raised to 2^31 - 1,
    or the 40th power of a sum of two parts, each a polynomial in ``names``
    and small integers or exp, sin or cos of one."""
    poly = st.recursive(st.one_of(st.sampled_from(names), st.integers(0, 9).map(str)),
                        lambda inner: st.tuples(inner, st.sampled_from("+-*"), inner).map(
                            lambda t: "(%s %s %s)" % t), max_leaves=3)
    part = st.one_of(poly, st.tuples(st.sampled_from(["exp", "sin", "cos"]), poly).map(
        lambda t: "%s(%s)" % t))
    return st.one_of(expressions(names, ["v"]), st.tuples(part, part).map(lambda t: "(%s + %s)^40" % t))


def run_config(tmp_path, text):
    """Exit status and stderr of one in-process CLI run of ``text``."""
    cfg = tmp_path / "fuzz.cfg"
    cfg.write_text(text)
    err = io.StringIO()
    # a RuntimeWarning of numpy is printed by the CLI, not raised
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore", RuntimeWarning)
        status = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    return status, err.getvalue()


def assert_clean_exit(status, err):
    assert status in (0, 1, 2), status
    assert "Traceback" not in err
    if status == 2:
        assert err.startswith("config error: ")


def test_expand_terms(tmp_path):
    @SETTINGS
    @hypothesis.given(st.lists(expressions(["x1", "xi1"], ["x1", "xi1"]),
                               min_size=1, max_size=2))
    def check(terms):
        assert_clean_exit(*run_config(tmp_path, """
[session]
task = expand
order = 2
seed = 1

[amplitude]
coords = x1
terms = %s
""" % ", ".join(terms)))

    check()


ACTION = """
[action]
coords = x1
params = v
forward = %s
inverse = %s
product = v__1 + v__2
param_inverse = -v
param_identity = 0
"""


def test_check_action_maps(tmp_path):
    @SETTINGS
    @hypothesis.given(maps(["x1", "v"]), maps(["x1", "v"]))
    def check(forward, inverse):
        assert_clean_exit(*run_config(tmp_path, """
[session]
task = check-action
seed = 1
""" + ACTION % (forward, inverse)))

    check()


def test_verify_numeric_maps(tmp_path):
    @SETTINGS
    @hypothesis.given(maps(["x1", "v"]), maps(["x1", "v"]), expressions(["x1", "v"]))
    def check(forward, inverse, phase):
        assert_clean_exit(*run_config(tmp_path, """
[session]
task = verify-numeric
seed = 1
""" + ACTION % (forward, inverse) + """
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
""" % phase))

    check()


def test_verify_numeric_grid_and_pair_budgets(tmp_path, monkeypatch):
    # T_v multiplies by e^{i v x1} and moves nothing, so an admitted run is
    # cheap; repeated elements count once in the arrays alive at once and
    # every time in the pairs
    built = []

    def recording(real):
        def call(*args, **kwargs):
            built.append(real.__name__)
            return real(*args, **kwargs)
        return call

    for name in ("gaussian", "phase_system_plan"):
        monkeypatch.setattr(numfio, name, recording(getattr(numfio, name)))

    @SETTINGS
    @hypothesis.given(st.integers(0, 40), st.integers(1, 8),
                      st.lists(st.integers(-3, 3), min_size=1, max_size=80))
    # 2^21 cells x 2 x (1 + 2 + 1) arrays and 2^21 x (10 + 4) x 1 applications are
    # at the budgets (tests/test_cli.py admits them); a third distinct element
    # or a fifth element passes one
    @hypothesis.example(21, 1, [1, 2, 3])
    @hypothesis.example(21, 1, [1, 2, 1, 2, 1])
    @hypothesis.example(14, 2, [1, 2, 1])
    def check(k, packets, elements):
        cells, n = 2 ** k, len(elements)
        past = (cells * 2 * (packets + len(set(elements)) + 1) > cli.CELL_BUDGET
                or max(cells, cli.PLAN_CELLS) * (n * (n + 1) // 2 + n) * packets
                > cli.APPLY_BUDGET)
        del built[:]
        status, err = run_config(tmp_path, """
[session]
task = verify-numeric
seed = 1

[action]
coords = x1
params = v
forward = x1
inverse = x1
product = v__1 + v__2
param_inverse = -v
param_identity = 0

[phase]
expr = v*x1

[grid]
dim = 1
points = %d
length = 4
hbar = 1/10

[numeric]
centers = %s
momenta = %s
elements = %s
""" % (cells, " ; ".join(["0"] * packets), " ; ".join(["0"] * packets),
       " ; ".join(map(str, elements))))
        assert_clean_exit(status, err)
        if past:
            assert status == 2 and built == [], (err, built)
            assert err.startswith(tuple("config error: [%s] verify-numeric on %d^1 points"
                                        % (section, cells) for section in ("grid", "numeric")))
        else:
            assert "gaussian" in built

    check()
