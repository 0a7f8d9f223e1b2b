"""Every example config reproduces its checked-in report byte for byte.

The files under tests/golden/ are the reports of configs/*.cfg, each run
with the seed in its own [session] section.  A change that alters any of
them changes what the example runs print; regenerate a golden file only
together with a stated reason for the new output.
"""

import glob
import os

import pytest

from quantact.cli import SessionConfig, run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


def _name(path):
    return os.path.splitext(os.path.basename(path))[0]


def test_every_config_has_a_golden_report():
    golden = glob.glob(os.path.join(ROOT, "tests", "golden", "*.txt"))
    assert CONFIGS
    assert sorted(map(_name, golden)) == sorted(map(_name, CONFIGS))


@pytest.mark.parametrize("path", CONFIGS, ids=_name)
def test_config_report_matches_golden(path, tmp_path):
    status, text = run(SessionConfig.load(path, out=str(tmp_path)))
    golden = os.path.join(ROOT, "tests", "golden", _name(path) + ".txt")
    with open(golden, newline="") as fh:
        assert text == fh.read()
