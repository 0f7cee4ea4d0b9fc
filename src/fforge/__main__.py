"""``python -m fforge``: the command line of :mod:`fforge.engine`."""

import sys

from .engine import main

sys.exit(main())
