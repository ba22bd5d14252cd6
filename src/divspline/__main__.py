"""python -m divspline: the command-line interface (divspline.cli.main)."""
from .cli import main

raise SystemExit(main())
