"""python -m cylasym: the cylasym command line (cli.main)."""

import sys

from .cli import main

sys.exit(main())
