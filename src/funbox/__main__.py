"""``python -m funbox ARGS`` runs the ``funbox`` command (see ``funbox.cli``)."""

import sys

from .cli import main

sys.exit(main())
