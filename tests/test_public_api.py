"""The package's public surface, as the README presents it."""

import os

import quantact
from quantact.expr import Expr

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_the_readme_example_runs_and_every_export_resolves(capsys):
    # every name in quantact.__all__ is bound, once, and the removed scalar
    # API is gone: exact scalars are (re, im) pairs, read by Expr.const_pair
    missing = [name for name in quantact.__all__ if not hasattr(quantact, name)]
    assert not missing, "unbound exports: %s" % ", ".join(missing)
    assert len(set(quantact.__all__)) == len(quantact.__all__)
    assert not hasattr(quantact, "GaussRat") and not hasattr(Expr, "const_value")
    # the "Library example" block, run as written: both checks pass exactly
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md (Library example)", "exec"), {})
    out = capsys.readouterr().out
    assert out.count("result: PASS (5 checks)") == 2 and "[probabilistic]" not in out
