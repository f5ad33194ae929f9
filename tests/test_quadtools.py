"""Panel Gauss-Legendre tables: edges with breakpoints."""

import os
import subprocess
import sys

import numpy as np
import pytest

from levyham import quadtools
from levyham.quadtools import log_gauss_panels


def unique_panels(lo, hi, panels_per_decade, nodes_per_panel, breakpoints):
    """log_gauss_panels with its edges merged by np.unique."""
    n_panels = max(int(np.ceil(np.log10(hi / lo) * panels_per_decade)), 1)
    edges = np.geomspace(lo, hi, n_panels + 1)
    extra = [b for b in breakpoints if lo < b < hi]
    if extra:
        edges = np.unique(np.concatenate([edges, np.asarray(extra, dtype=float)]))
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_panel)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * gx[None, :]).ravel(),
            (half[:, None] * gw[None, :]).ravel())


class TestBreakpointEdges:
    @pytest.mark.parametrize("lo, hi, ppd", [(1e-9, 1.0, 4), (1e-9, 1e6, 4), (0.1, 2.0, 3)])
    def test_edges_equal_unique_bit_for_bit(self, lo, hi, ppd):
        grid = np.geomspace(lo, hi, max(int(np.ceil(np.log10(hi / lo) * ppd)), 1) + 1)
        rng = np.random.default_rng(3)
        inside = np.exp(rng.uniform(np.log(lo), np.log(hi), 6)).tolist()
        cases = [
            (),
            inside,
            inside + inside[:3],                       # duplicated breakpoints
            [grid[1], grid[2], grid[-2]],              # breakpoints on panel edges
            [grid[1], grid[1], inside[0], inside[0]],  # both at once
            [lo, hi, 2 * hi, 0.5 * lo, inside[1]],     # outside or on the ends: dropped
        ]
        for bp in cases:
            got = log_gauss_panels(lo, hi, ppd, 12, breakpoints=bp)
            want = unique_panels(lo, hi, ppd, 12, bp)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), bp

    def test_breakpointed_table_leaves_numpy_ma_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(quadtools.__file__)))
        code = ("import sys\nfrom levyham.quadtools import log_gauss_panels\n"
                "log_gauss_panels(1e-9, 1.0, breakpoints=(0.3, 0.3, 0.7))\n"
                "print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False"]
