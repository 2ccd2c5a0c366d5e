"""Seeded instance generators."""

import numpy as np
import pytest

from tensordec import PreconditionError, gmm_smoothed_params, smoothed_decomposition
from tensordec.synthetic import direction_separation


def _pair_loop_separation(mat):
    """Reference: min over column pairs of the distance, up to sign, of the
    unit directions, from two norms per pair."""
    u = mat / np.linalg.norm(mat, axis=0)
    k = u.shape[1]
    best = np.inf
    for i in range(k):
        for j in range(i + 1, k):
            best = min(best, np.linalg.norm(u[:, i] - u[:, j]),
                       np.linalg.norm(u[:, i] + u[:, j]))
    return best


class TestDirectionSeparation:
    @pytest.mark.parametrize("n, k", [(8, 2), (16, 8), (64, 32), (4, 12)])
    def test_matches_pair_loop(self, n, k):
        rng = np.random.default_rng(n + k)
        for _ in range(5):
            mat = rng.standard_normal((n, k))
            assert abs(direction_separation(mat) - _pair_loop_separation(mat)) <= 1e-14

    def test_parallel_and_antipodal_columns_are_unseparated(self):
        v = np.array([1.0, 2.0, -2.0])
        assert direction_separation(np.column_stack([v, 3.0 * v])) == 0.0
        assert direction_separation(np.column_stack([v, -v, [1.0, 0.0, 0.0]])) == 0.0

    def test_orthogonal_columns(self):
        assert direction_separation(np.eye(4)) == pytest.approx(np.sqrt(2.0), abs=1e-15)

    def test_single_column_is_unbounded(self):
        assert direction_separation(np.ones((3, 1))) == np.inf


class TestSmoothedGenerators:
    @pytest.mark.parametrize("rho", [1e200, 1e300, np.inf, np.nan, 0.0, -1.0])
    def test_unusable_rho_rejected(self, rho):
        # at 1e200 and 1e300 the perturbed column norms overflow to inf, and
        # dividing by them would give all-zero factors
        with pytest.raises(PreconditionError, match="rho"):
            smoothed_decomposition((4, 4, 4), 3, rho=rho, seed=1)
        with pytest.raises(PreconditionError, match="rho"):
            gmm_smoothed_params(4, 6, rho=rho, seed=1)

    def test_large_finite_rho_gives_unit_columns(self):
        d = smoothed_decomposition((4, 4, 4), 3, rho=1e100, seed=1)
        for f in d.factors:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0)
        means = gmm_smoothed_params(4, 6, rho=1e100, seed=1).means
        assert np.allclose(np.linalg.norm(means, axis=0), 1.0)
