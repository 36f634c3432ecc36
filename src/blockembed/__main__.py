"""``python -m blockembed``: the command-line front end, exiting with its code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
