"""Entry point: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

Run from the repository root; see ``cli.py`` for the commands.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
