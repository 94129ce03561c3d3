"""Test-session setup shared by every test module."""

import os

# One BLAS thread, as in perfbench/run.py: a multi-threaded OpenBLAS spins on
# every core and stalls when another process holds one. This must run before
# numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
