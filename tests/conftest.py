import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from psq.cli import main


class CliResult(NamedTuple):
    code: int
    out: str
    err: str


@pytest.fixture
def cli(capsys):
    """Run the psq CLI in process on an argv list: its exit code, stdout and stderr."""

    def run(argv):
        try:
            code = main(argv, standalone_mode=False)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        return CliResult(code, out, err)

    return run


# The cold-process runner: a fresh interpreter on the source tree, for what an
# in-process test cannot see (the modules a call loads, time and memory limits).
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_RUN_CLI = "import runpy; runpy.run_module('psq.cli', run_name='__main__', alter_sys=True)"


def _cold_env():
    """The environment of a cold process: this one's, with the source tree first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))


def _python(code, *args, timeout=120):
    """Run `python -c code *args` cold; exceeding `timeout` seconds fails the test."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=_cold_env(), capture_output=True, text=True, timeout=timeout
    )


def _then_print(run, expr):
    """Code that runs `run` and then, however it ends, prints `expr` as its last stderr line."""
    return f"import sys\ntry:\n    {run}\nfinally:\n    print({expr}, file=sys.stderr)"


def _loaded(run):
    """Code that runs `run` and then prints to stderr the psq modules it loaded,
    together with those of numpy, scipy, click, dataclasses and inspect."""
    heavy = "{'numpy', 'scipy', 'click', 'dataclasses', 'inspect'}"
    return _then_print(run, f"sorted(m for m in sys.modules if m.startswith('psq') or m in {heavy})")


# References shared by the cone and acceptance tests, independent of psq.
def b3_quartic_root():
    """Root of 20 x^4 + 60 x^3 + 9 x^2 - 54 x - 27 on [0.9, 1.0] by
    bisection: a route to b_3 independent of psq's b3_radical."""

    def poly(x):
        return ((((20.0 * x + 60.0) * x) + 9.0) * x - 54.0) * x - 27.0

    lo, hi = 0.9, 1.0  # poly(0.9) < 0 < poly(1.0)
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _psi_exact_offdiag(b, z, s):
    """Exact Psi of M_d(b) at (z, s), summed over groups of equal (z_l, s_l):
    sum_l z_l^3 + b sum_l s_l z_l (S - s_l z_l^2) with S = sum_k s_k z_k^2."""
    b = Fraction(b)
    groups = [(Fraction(v), sg, k) for (v, sg), k in Counter(zip(z, s)).items()]
    total = sum(k * sg * v * v for v, sg, k in groups)
    return sum(k * (v ** 3 + b * sg * v * (total - sg * v * v)) for v, sg, k in groups)
