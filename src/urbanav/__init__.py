"""urbanav: grounded navigation on tile-grid city maps, at desk scale."""

import os

# One BLAS thread unless the caller sets a count: the matrices are small, so more
# threads only burn CPU. BLAS reads these when NumPy loads, before any import below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"

from .executor import Action, Pose, Route
from .model import ModelConfig, NavigationModel
from .worldmap import Entity, GridMap, Street, TileCoord, load_map

__all__ = [
    "Action",
    "Entity",
    "GridMap",
    "ModelConfig",
    "NavigationModel",
    "Pose",
    "Route",
    "Street",
    "TileCoord",
    "load_map",
    "__version__",
]
