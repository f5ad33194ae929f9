"""Shared fixtures: the double-well slice-noise benchmark and cheap helpers."""

import dataclasses

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
