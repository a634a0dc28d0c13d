"""Entry point for ``python -m stratkit``, equivalent to the ``stratkit`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
