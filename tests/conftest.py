import os
import sys

# One BLAS thread, set before numpy loads: with BLAS on every core, the
# criterion-7 fixture's 2,000 small fits slow several-fold whenever another
# process holds a core.  A variable already set is left as it is.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin BLAS to "
                       "one thread")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

sys.path.insert(0, os.path.dirname(__file__))
