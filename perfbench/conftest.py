"""Self-tests of the benchmark: import the benchmark modules and treedep from src/.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
