"""``python -m msrcpspr``: the same command line as the ``msrcpspr`` script."""

import sys

from msrcpspr import cli

if __name__ == "__main__":
    sys.exit(cli.main())
