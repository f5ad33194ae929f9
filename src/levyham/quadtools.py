"""Shared fixed-node quadrature helpers.

Panel Gauss-Legendre rules on log-spaced panels resolve integrands that are
power-singular at the origin; breakpoints force panel edges onto known kinks
(support edges, indicator boundaries) so every panel sees a smooth integrand.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["log_gauss_panels"]


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the n-point rule on [-1, 1], computed once per n; read-only as it is shared
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.setflags(write=False)
    return rule


def log_gauss_panels(lo: float, hi: float, panels_per_decade: int = 4,
                     nodes_per_panel: int = 12, breakpoints=()) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on log-spaced panels covering ``(lo, hi]``.

    ``lo`` must be positive; ``breakpoints`` strictly inside ``(lo, hi)``
    become extra panel edges. Returns flat arrays ``(x, w)`` ordered by x.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    decades = np.log10(hi / lo)
    n_panels = max(int(np.ceil(decades * panels_per_decade)), 1)
    edges = np.geomspace(lo, hi, n_panels + 1)
    extra = [b for b in breakpoints if lo < b < hi]
    if extra:
        # np.unique's own steps on 1-d floats, without the numpy.ma import it costs
        edges = np.sort(np.concatenate([edges, np.asarray(extra, dtype=float)]))
        edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    gx, gw = _gauss_legendre(nodes_per_panel)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    return x, w
