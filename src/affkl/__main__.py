"""``python -m affkl``: the affkl command line (see affkl.cli)."""

import sys

from .cli import main

sys.exit(main())
