"""The walkthrough scripts in demos/, each run as a user would run it.

Each demo runs in its own temporary working directory, so the CSVs that
demos 02 and 04 write stay out of the source tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import evuas as ev

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _run(script, cwd):
    # the demos import evuas from wherever this test run found it
    package_root = str(Path(ev.__file__).resolve().parents[1])
    env = dict(os.environ)
    paths = [package_root, env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, str(script)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


# lines a demo must print, by its number
EXPECTED = {
    "01": ("cos_exp: trend=decreasing", "const1: trend=not-decreasing",
           "metric under sqrt(32) e^{-t}: confirmed"),
    "02": ("(the forced equilibrium, not the origin)",),
    "03": ("input-cost growth for 'cubic': coercive-evidence",
           "input-cost growth for 'tanh': non-coercive-evidence"),
    "04": ("states bitwise equal: True",),
    "05": ("unforced error system: pass", "attraction=fail",
           "bounded oscillating disturbance: pass"),
}


@pytest.mark.slow
@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    for line in EXPECTED.get(script.stem[:2], ()):
        assert line in proc.stdout, proc.stdout


def test_all_demos_are_collected():
    assert len(DEMOS) == 5
