"""Shared fixtures: the double-well slice-noise benchmark and cheap helpers."""

import dataclasses
import math

import numpy as np
import pytest

from levyham import constants as cn
from levyham import generator as gen
from levyham import measures as ms
from levyham import model as md
from levyham import simulate as sim
from levyham.pair import PairState


@dataclasses.dataclass(frozen=True)
class ForceSystem:
    """A system with a general force ``U(x, v)`` of arrays ``(..., dim)``.

    The simulation kernel and the drift verifiers read only ``a``, ``b``,
    ``force`` and ``dim``, so this stands in for ``KineticLangevinSpec``.
    """

    force: object
    dim: int = 1
    a: float = 0.0
    b: float = 1.0


ZERO_FORCE = ForceSystem(lambda x, v: np.zeros_like(np.asarray(v, dtype=float)))


def displacements(levy, u, Q, alpha, kappa, l):
    """The second copy's displacement for each jump ``u`` of the first, classified
    with uniform ``l`` at transformed gap ``Q`` (arrays broadcast together).

    Each jump runs as its own replica of one ``step_pair`` window from
    ``(x, xp, v, vp) = (Q, 0, 0, 0)`` under zero force with no compensation
    drift; the second copy's velocity after the window is then the
    displacement bit for bit.
    """
    u, Q, l = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (u, Q, l)))
    zero = np.zeros((u.size, 1))
    out = sim.step_pair(ZERO_FORCE, levy, PairState(Q.reshape(-1, 1), zero, zero, zero), 0.01,
                        u.ravel(), l.ravel(), alpha, kappa, np.zeros(1), np.arange(u.size))
    return out.vp.reshape(u.shape)[()]


def ref_compute_lipschitz(system, position_radius, n_pairs=100_000, inflate=1.05):
    """Oracle for ``constants.compute_lipschitz``: every pair evaluated in one
    stacked force call, the Sobol pairs then the two axis-aligned blocks."""
    d = system.dim
    pts = cn._scrambled_sobol(4 * d, max(int(math.ceil(math.log2(max(n_pairs, 2)))), 1), 777)
    n_pairs = pts.shape[0]
    x = (2 * pts[:, 0:d] - 1) * position_radius
    xp = (2 * pts[:, d:2 * d] - 1) * position_radius
    v = (2 * pts[:, 2 * d:3 * d] - 1) * position_radius
    vp = (2 * pts[:, 3 * d:4 * d] - 1) * position_radius
    k = max(n_pairs // 10, 1)
    x = np.vstack([x, x[:k], x[:k]])
    xp = np.vstack([xp, x[:k], xp[:k]])          # block 1: zero position gap
    v = np.vstack([v, v[:k], v[:k]])
    vp = np.vstack([vp, vp[:k], v[:k]])          # block 2: zero velocity gap

    def quotient(x, v, xp, vp):
        with np.errstate(over="ignore", invalid="ignore"):
            du = np.asarray(system.force(x, v), dtype=float) - np.asarray(system.force(xp, vp), dtype=float)
            gap = np.linalg.norm(x - xp, axis=-1) + np.linalg.norm(v - vp, axis=-1)
            num = np.linalg.norm(du, axis=-1)
        good = gap > 1e-12
        out = np.zeros_like(gap)
        out[good] = num[good] / gap[good]
        return out

    qs = quotient(x, v, xp, vp)
    if not np.all(np.isfinite(qs)):
        return math.inf
    best = float(np.max(qs))
    i = int(np.argmax(qs))
    bx, bv, bxp, bvp = x[i], v[i], xp[i], vp[i]
    for _ in range(3):
        mid_x, mid_v = 0.5 * (bx + bxp), 0.5 * (bv + bvp)
        shrink = [(bx, bv, mid_x + 0.5 * (bxp - mid_x), mid_v + 0.5 * (bvp - mid_v)),
                  (mid_x + 0.5 * (bx - mid_x), mid_v + 0.5 * (bv - mid_v), bxp, bvp)]
        for cand in shrink:
            q = float(quotient(*(c[None, :] for c in cand))[0])
            if q > best:
                best = q
                bx, bv, bxp, bvp = cand
    return best * inflate


@pytest.fixture(scope="session")
def benchmark_levy():
    return ms.LevyMeasureSpec(measure=ms.SliceMeasure(c=1.0, theta0=0.4, dim=1), theta=1.0)


@pytest.fixture(scope="session")
def benchmark_langevin():
    return md.KineticLangevinSpec(alpha_damp=1.0, beta=1.0,
                                  potential=md.DoubleWellPoly(1.0, 2.0, 2.0), dim=1)


@pytest.fixture(scope="session")
def benchmark_bundle(benchmark_langevin, benchmark_levy):
    return cn.build_constants(benchmark_langevin, benchmark_levy)


@pytest.fixture(scope="session")
def benchmark_setup(benchmark_langevin):
    return md.build_lyapunov(benchmark_langevin)


@pytest.fixture(scope="session")
def benchmark_lyap(benchmark_setup):
    return benchmark_setup.lyap


@pytest.fixture(scope="session")
def half_slice_levy():
    # the theta0 = 0.5 slice used by the closed-form overlap oracles
    return ms.LevyMeasureSpec(measure=ms.SliceMeasure(c=1.0, theta0=0.5, dim=1), theta=1.0)


@pytest.fixture(scope="session")
def scheme():
    return gen.QuadratureScheme()


@pytest.fixture(scope="session")
def live_profile():
    return cn.REFERENCE_LIVE_PROFILE


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def flat_lyap():
    return md.LyapunovSpec(r=1.0, r0_cross=0.3, theta=1.0, v0=md.Quadratic(0.0), dim=1)
