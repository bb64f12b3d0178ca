"""Geodesic attention kernels on the Oblique manifold and Lorentz hyperboloid.

Submodules:

* ``linalg``: input validation into finite float64 arrays.
* ``oblique``: product-of-spheres manifold: projection, geodesic distance,
  tangent projection, retraction.
* ``lorentz``: hyperboloid model: exp/log maps at the origin, geodesic
  distance.
* ``attention``: every kernel and the bidirectional wiring, on one skeleton
  whose ``softmax_rows`` stage is the package's only softmax.
* ``diffcheck``: finite differences and the scalar reference kernels.
* ``experiments``: tree-embedding distortion and constrained-descent demos.
* ``cli`` / ``verify``: command-line surface and the runtime property suite.
"""

from . import attention, diffcheck, experiments, linalg, lorentz, oblique
from .attention import AttentionConfig

__all__ = [
    "attention",
    "diffcheck",
    "experiments",
    "linalg",
    "lorentz",
    "oblique",
    "AttentionConfig",
]

__version__ = "0.1.0"
