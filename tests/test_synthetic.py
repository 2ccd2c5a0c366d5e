"""Seeded instance generators."""

import numpy as np
import pytest

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
