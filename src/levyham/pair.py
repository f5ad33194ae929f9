"""Coupled pair state and its derived geometry.

The contraction analysis works through the transformed difference
``q = z + w / alpha`` (``z`` the position gap, ``w`` the velocity gap) and
the blended radius ``r = alpha0 |z| + |q|``. Derived quantities are always
recomputed from the four state vectors; nothing is cached. The state
vectors may carry leading axes (for example replicas and snapshots
stacked as ``(N, n_save, d)``); norms run over the last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PairState", "DEGENERATE_GAP"]

# Gap norms (the transformed gap |q|, and |z|) at or below this count as zero.
# At a degenerate gap |q| every jump is synchronous: the simulator copies the
# jump and the pair operator drops its two modified channels.
DEGENERATE_GAP = 1e-12


@dataclass(frozen=True)
class PairState:
    """Two copies of the system state: ``(x, v)`` and ``(xp, vp)``."""

    x: np.ndarray
    v: np.ndarray
    xp: np.ndarray
    vp: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "xp", "vp"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.x.shape == self.v.shape == self.xp.shape == self.vp.shape):
            raise ValueError("pair components must share one shape")

    @property
    def dim(self) -> int:
        return self.x.shape[-1]

    @property
    def z(self) -> np.ndarray:
        return self.x - self.xp

    @property
    def w(self) -> np.ndarray:
        return self.v - self.vp

    def q(self, alpha: float) -> np.ndarray:
        return self.z + self.w / alpha

    def r(self, alpha: float, alpha0: float):
        return alpha0 * np.linalg.norm(self.z, axis=-1) + np.linalg.norm(self.q(alpha), axis=-1)
