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
