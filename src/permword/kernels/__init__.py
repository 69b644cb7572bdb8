"""The three numpy kernels behind the walks, exact evolution and the
tuple-graph gap estimate; see ``pure`` for their preconditions."""

from .pure import adjacency_apply, convolve_steps, track_points

__all__ = ["adjacency_apply", "backend", "convolve_steps", "track_points"]


def backend() -> str:
    """Always ``"python"``: the benchmark harness stamps this name on its
    results and compares only results with equal stamps."""
    return "python"
