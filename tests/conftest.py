"""Shared fixtures: the double-well slice-noise benchmark and cheap helpers."""

import numpy as np
import pytest

from levyham import constants as cn
from levyham import generator as gen
from levyham import measures as ms
from levyham import model as md


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
