"""Test-session setup: one BLAS thread.

The suite runs many small dense factorisations.  With the default BLAS
thread count they oversubscribe the cores as soon as another process
holds one: on a 2-core machine with a second core busy, the suite took
123-148 s instead of 10-16 s.  The variables are read when numpy loads,
so they are set here, before any test module imports it; a value already
in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
