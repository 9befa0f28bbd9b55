"""Lets the benchmark's tests import ``hqp`` from the source tree."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
