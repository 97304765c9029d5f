"""``python -m benchmarks.e2e``: the same commands as ``run.py``."""

from .cli import main

raise SystemExit(main())
