"""``python -m mxquant``: the same command line as the installed ``mxquant``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
