"""``python -m restapprox``: the same command line as the ``restapprox`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
