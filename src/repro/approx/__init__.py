"""Frozen k-distance sketches and the ``engine="approx"`` tier.

See :mod:`repro.approx.sketch` for the freeze-time kNNL floor builder
and :mod:`repro.approx.engine` for the exact profile engine that
answers from it.
"""

from .engine import ApproxEngine
from .sketch import SKETCH_KMAX, KnnlSketch, build_sketch

__all__ = [
    "ApproxEngine",
    "KnnlSketch",
    "build_sketch",
    "SKETCH_KMAX",
]
