"""Spectral helpers: pseudoinverse, eig, conditioning, leave-one-out."""

import numpy as np
import pytest
import scipy.linalg

from tensordec import (
    PreconditionError,
    leave_one_out,
)
from tensordec.matrix_ops import (
    _null_space,
    condition_number,
    eig_nonsymmetric,
    pseudoinverse,
)


class TestPseudoinverse:
    def test_invertible_diagonal(self):
        assert np.allclose(pseudoinverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_rank_one_closed_form(self):
        # pinv(u v^T) = v u^T for unit u, v.
        u = np.array([3.0, 4.0]) / 5.0
        v = np.array([1.0, 0.0, 0.0])
        m = np.outer(u, v)
        assert np.allclose(pseudoinverse(m), np.outer(v, u), atol=1e-12)

    def test_zero_matrix(self):
        assert np.array_equal(pseudoinverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_moore_penrose_identities(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 3))
        p = pseudoinverse(m)
        assert np.allclose(m @ p @ m, m, atol=1e-10)
        assert np.allclose(p @ m @ p, p, atol=1e-10)

    def test_relative_tolerance_truncates(self):
        m = np.diag([1.0, 1e-14])
        p = pseudoinverse(m)
        assert np.allclose(p, np.diag([1.0, 0.0]))


class TestEigNonsymmetric:
    def test_diagonal(self):
        values, _ = eig_nonsymmetric(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sorted(values.real), [1.0, 2.0, 3.0])
        assert np.allclose(values.imag, 0.0)

    def test_rotation_has_imaginary_pair(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        values, _ = eig_nonsymmetric(rot)
        assert np.allclose(sorted(values.imag), [-1.0, 1.0])

    def test_construct_then_decompose(self):
        rng = np.random.default_rng(2)
        basis = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        m = basis @ np.diag([1.0, 5.0, 9.0]) @ np.linalg.inv(basis)
        values, vectors = eig_nonsymmetric(m)
        assert np.allclose(sorted(values.real), [1.0, 5.0, 9.0], atol=1e-8)
        assert np.allclose(m @ vectors, vectors * values, atol=1e-8)


class TestConditionNumber:
    def test_orthonormal_columns(self):
        assert condition_number(np.eye(4)[:, :2]) == pytest.approx(1.0)

    def test_diagonal(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_nearly_parallel_columns(self):
        m = np.array([[1.0, 1.0], [0.0, 1e-3]])
        # sigma_1 ~ sqrt(2), sigma_2 ~ 1e-3/sqrt(2), ratio ~ 2000
        assert condition_number(m) == pytest.approx(2000.0, rel=0.05)

    def test_singular_is_infinite(self):
        assert condition_number(np.ones((3, 2))) == np.inf


class TestLeaveOneOut:
    def test_identity_columns(self):
        assert leave_one_out(np.eye(3)) == pytest.approx(1.0)

    def test_duplicated_column_gives_zero(self):
        m = np.column_stack([np.ones(3), np.ones(3)])
        assert leave_one_out(m) == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_agreement(self):
        # Oracle: min over i of the residual of column i after projecting
        # onto the span of the others, computed by explicit least squares.
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 4))
        best = np.inf
        for i in range(4):
            others = np.delete(m, i, axis=1)
            coef, *_ = np.linalg.lstsq(others, m[:, i], rcond=None)
            best = min(best, np.linalg.norm(m[:, i] - others @ coef))
        assert leave_one_out(m) == pytest.approx(best, rel=1e-9)

    def test_sandwich_against_sigma_min(self):
        # ell(M)/sqrt(k) <= sigma_min(M) <= ell(M) for every matrix.
        rng = np.random.default_rng(4)
        for trial in range(25):
            m = rng.standard_normal((5, 3))
            ell = leave_one_out(m)
            smin = np.linalg.svd(m, compute_uv=False)[-1]
            assert ell / np.sqrt(3) <= smin + 1e-12
            assert smin <= ell + 1e-12

    def test_zero_matrix_gives_zero(self):
        assert leave_one_out(np.zeros((4, 3))) == 0.0

    def test_zero_column_gives_zero(self):
        m = np.random.default_rng(6).standard_normal((5, 3))
        m[:, 1] = 0.0
        assert leave_one_out(m) == pytest.approx(0.0, abs=1e-12)

    def test_wide_matrix_gives_zero(self):
        # more columns than rows: the columns are dependent
        m = np.random.default_rng(7).standard_normal((3, 5))
        assert leave_one_out(m) == 0.0

    def test_single_column_gives_its_norm(self):
        assert leave_one_out(np.array([[3.0], [4.0]])) == pytest.approx(5.0, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_tiny_and_huge_scales(self, scale):
        # the distance scales with the matrix, with no overflow to 0 or inf
        m = np.random.default_rng(8).standard_normal((6, 4))
        assert leave_one_out(scale * m) == pytest.approx(scale * leave_one_out(m), rel=1e-12)



def _shaped_matrices(seed):
    """Random square, wide and tall matrices, each also at one rank below
    full, plus the zero matrix."""
    rng = np.random.default_rng(seed)
    out = [np.zeros((3, 4))]
    for m, n in [(1, 1), (1, 5), (5, 1), (6, 6), (4, 9), (9, 4), (16, 3), (3, 16)]:
        out.append(rng.standard_normal((m, n)))
        r = min(m, n) - 1
        if r >= 1:
            out.append(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
    return out


class TestSvdBases:
    """The numpy bases use SciPy's rank rule and give SciPy's bytes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_null_space_matches_scipy(self, seed):
        for a in _shaped_matrices(seed):
            got = _null_space(a)
            want = scipy.linalg.null_space(a)
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_leave_one_out_matches_orth_projection(self):
        # The closed form from one SVD agrees to rounding with projecting
        # each column onto SciPy's orth basis of the others.
        rng = np.random.default_rng(5)
        for trial in range(40):
            n, k = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            m = rng.standard_normal((max(n, k), k))
            if trial % 2:
                m[:, -1] = m[:, :-1] @ rng.standard_normal(k - 1)
            best = np.inf
            for i in range(k):
                basis = scipy.linalg.orth(np.delete(m, i, axis=1))
                col = m[:, i]
                best = min(best, np.linalg.norm(col - basis @ (basis.T @ col)))
            eps = np.finfo(np.float64).eps
            assert leave_one_out(m) == pytest.approx(
                best, rel=64 * eps, abs=64 * eps * np.linalg.norm(m)
            )

    def test_null_space_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            _null_space(np.array([[1.0, np.nan]]))
