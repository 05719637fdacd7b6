"""``python3 -m modquant COMMAND ...``: the CLI, as the ``modquant`` script runs it."""

import sys

from .cli import main

sys.exit(main())
