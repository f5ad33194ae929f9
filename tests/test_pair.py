"""Pair geometry: the row norm and the derived radius."""

import numpy as np
import pytest

from levyham.pair import PairState, row_norm


def signed_log_uniform(rng, shape, lo=-150.0, hi=150.0):
    """Values with |x| log-uniform in [10^lo, 10^hi], of random sign."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)


def norm(a, keepdims=False):
    return np.linalg.norm(a, axis=-1, keepdims=keepdims)


class TestRowNorm:
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_one_component_is_the_norm_bit_for_bit(self, keepdims):
        # |x| in [1e-150, 1e150], where x * x neither underflows nor overflows
        rng = np.random.default_rng(31)
        a = signed_log_uniform(rng, (500_000, 1))
        a[:4, 0] = [0.0, -0.0, 1e-150, -1e150]
        got, want = row_norm(a, keepdims), norm(a, keepdims)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (2, 3, 4, 1), (0, 1)])
    def test_leading_axes_and_one_state(self, shape):
        a = signed_log_uniform(np.random.default_rng(7), shape, -5.0, 5.0)
        for keepdims in (False, True):
            got, want = row_norm(a, keepdims), norm(a, keepdims)
            assert np.shape(got) == np.shape(want) and type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_two_components_are_the_norm(self, keepdims):
        a = signed_log_uniform(np.random.default_rng(32), (100_000, 2), -100.0, 100.0)
        assert row_norm(a, keepdims).tobytes() == norm(a, keepdims).tobytes()

    def test_outside_the_range_abs_is_exact_where_the_norm_is_not(self):
        # the square underflows below about 1.5e-154 and overflows above
        # about 1.3e154; the norm then loses the value and abs keeps it
        a = np.array([[1e-170], [-3e-160], [2e160], [-1e300], [np.inf]])
        assert np.array_equal(row_norm(a), np.abs(a[:, 0]))
        with np.errstate(over="ignore", under="ignore"):
            lost = norm(a)
        assert np.all(lost[:4] != np.abs(a[:4, 0])) and lost[4] == np.inf

    def test_radius_takes_the_row_norm(self, rng):
        parts = rng.normal(0, 1.5, (4, 9, 1))
        pair = PairState(*parts)
        want = 2.0 * norm(pair.z) + norm(pair.q(0.7))
        assert pair.r(0.7, 2.0).tobytes() == want.tobytes()
        point = PairState(*parts[:, 0])
        assert point.r(0.7, 2.0) == want[0]
