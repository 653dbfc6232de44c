"""Entry point for ``python -m repro``."""

import os
import sys

from repro.cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:
    # Piped into `head` etc.: exit quietly instead of tracebacking.
    # (Restoring SIGPIPE's default action instead would also kill the
    # process when a pipe to a terminated pool worker breaks.)
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 1
sys.exit(code)
