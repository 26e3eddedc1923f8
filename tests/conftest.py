# Presence of this file puts the tests directory on sys.path so the
# test modules can import the shared helpers and gradcheck oracles.
#
# beatnet is imported here, before any test module loads NumPy, so the
# suite runs on the BLAS configuration of the ``beatnet`` command: one
# OpenBLAS thread unless OPENBLAS_NUM_THREADS says otherwise.
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import beatnet  # noqa: E402,F401
