"""Entry point for ``python -m orbifloer``: the same command line as ``orbifloer``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
