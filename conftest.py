import os
import sys

# The solve pins (tests/test_solve_pins.py) hold the solver's outputs to the
# bit, and their last bits depend on OpenBLAS's kernel.  Select the Prescott
# kernel (SSE3, which every x86-64 CPU runs) before numpy loads, whatever
# the host or the environment would select.
os.environ["OPENBLAS_CORETYPE"] = "Prescott"

# Allow running pytest from a plain checkout without installing the package.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "src"))
