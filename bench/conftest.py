"""Test setup for the benchmark's own tests: `python3 -m pytest bench`."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
