"""`python -m upcsc`: the body of the console script that installing the package writes."""

import sys

from .cli import main

# a spawned worker imports this module under another name, and must not run the CLI
if __name__ == "__main__":
    sys.exit(main())
