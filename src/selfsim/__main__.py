"""python -m selfsim: the command line of selfsim.cli."""
from .cli import main

raise SystemExit(main())
