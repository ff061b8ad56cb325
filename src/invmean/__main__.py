"""`python -m invmean ...` runs the command line, as the `invmean` script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
