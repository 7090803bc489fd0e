"""CLI entry: ``python -m repro`` (run/sweep/cache/experiments/list).

The consolidated interface over :mod:`repro.api`; see :mod:`repro.cli`
for the subcommand reference.
"""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piping into `head`/`grep -q` closes stdout early; that is not
        # an error. Point stdout at devnull so the interpreter's final
        # flush doesn't raise again, and exit cleanly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
