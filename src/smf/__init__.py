"""Stochastic matrix factorization toolkit.

Non-negative factorization X = W @ H where at least one factor is
row-stochastic, with a constrained least-squares solver, uniqueness and
bounds analysis, image and topic pipelines, and synthetic test instances.
"""

from . import factors, faces, identify, linalg, matrixio, solver, synthetic, topics
# Each module's __all__ is its public interface; the package republishes
# them whole (the one use of wildcard imports that PEP 8 endorses).
from .factors import *
from .faces import *
from .identify import *
from .linalg import *
from .matrixio import *
from .solver import *
from .synthetic import *
from .topics import *

__version__ = "0.1.0"

__all__ = [
    *factors.__all__, *faces.__all__, *identify.__all__, *linalg.__all__,
    *matrixio.__all__, *solver.__all__, *synthetic.__all__, *topics.__all__,
    "__version__",
]
