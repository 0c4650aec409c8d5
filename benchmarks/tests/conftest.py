"""Make the package sources and the benchmark modules importable."""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

_BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]
