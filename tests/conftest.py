import os
import sys

# One BLAS thread per process, set before numpy loads its BLAS: the pool
# tests fork workers, and BLAS threads on top of them would oversubscribe
# the cores. An explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could "
                       "set its BLAS thread count")

import hypothesis  # noqa: E402

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")
