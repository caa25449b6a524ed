import os
import subprocess
import sys
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
# in-process test cannot see (imports, blocked modules, time and memory limits).
_SRC = str(Path(__file__).resolve().parents[1] / "src")
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"
_RUN_CLI = "import runpy; runpy.run_module('psq.cli', run_name='__main__', alter_sys=True)"


def _python(code, *args, timeout=120):
    """Run `python -c code *args` cold; exceeding `timeout` seconds fails the test."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def _then_print(run, expr):
    """Code that runs `run` and then, however it ends, prints `expr` as its last stderr line."""
    return f"import sys\ntry:\n    {run}\nfinally:\n    print({expr}, file=sys.stderr)"


def _loaded(run):
    """Code that runs `run` and then prints the psq modules it loaded to stderr."""
    return _then_print(run, "sorted(m for m in sys.modules if m.startswith('psq'))")
