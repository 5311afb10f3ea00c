"""SPD-preserving learned column-row updates for sparse precision estimation."""

import os

# Every array here is small, so BLAS threads only cost: one thread unless
# the user chose otherwise. OpenBLAS reads this when numpy loads, so a
# process that imported numpy first keeps its own setting.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import autodiff, baselines, core, datagen, linalg, models, training

__all__ = [
    "autodiff",
    "baselines",
    "core",
    "datagen",
    "linalg",
    "models",
    "training",
]

__version__ = "0.1.0"
