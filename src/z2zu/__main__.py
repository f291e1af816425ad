"""``python -m z2zu``: the command line of the ``z2zu`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
