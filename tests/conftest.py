import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# the same examples on every run, and no example database in the repository
settings.register_profile("evuas", derandomize=True, database=None)
settings.load_profile("evuas")


def pytest_configure(config):
    # hypothesis still caches the literals of imported modules in its home
    # directory; keep that out of the working tree and drop it afterwards
    home = tempfile.mkdtemp(prefix="evuas-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)

_ACCEPTANCE = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE.append((report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for name, ok in _ACCEPTANCE:
        terminalreporter.write_line(f"{name}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
