"""``python -m repro``: the command line (see :mod:`repro.cli`)."""

import sys

from .cli import main

sys.exit(main())
