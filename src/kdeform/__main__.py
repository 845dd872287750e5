"""python -m kdeform: the kdeform command line (see cli)."""

import sys

from .cli import main

sys.exit(main())
