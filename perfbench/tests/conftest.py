"""Pin the environment before any test imports the program."""

import sys

from perfbench.run import ROOT, pin_environment

pin_environment(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
