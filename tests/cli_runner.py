"""In-process runs of the ``qrook`` command line, for the tests."""

import contextlib
import io
from typing import NamedTuple

from qrook.cli import main


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr in one buffer, in the order written


def invoke(args) -> CliResult:
    """Run ``qrook <args>`` in this process; any exception other than
    ``SystemExit`` propagates."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = main(list(args), standalone_mode=False)
    return CliResult(code, buffer.getvalue())
