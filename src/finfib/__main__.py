"""``python -m finfib``: the command line with its documented exit codes."""

import sys

from .cli import main

sys.exit(main())
