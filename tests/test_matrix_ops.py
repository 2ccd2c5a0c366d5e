"""Spectral helpers: pseudoinverse, eig, conditioning, leave-one-out."""

import numpy as np
import pytest

from tensordec import (
    PreconditionError,
    condition_number,
    eig_nonsymmetric,
    leave_one_out,
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

    def test_rank_cap(self):
        m = np.diag([4.0, 2.0, 1.0])
        p = pseudoinverse(m, rank=2)
        assert np.allclose(p, np.diag([0.25, 0.5, 0.0]))

    def test_relative_tolerance_truncates(self):
        m = np.diag([1.0, 1e-14])
        p = pseudoinverse(m)
        assert np.allclose(p, np.diag([1.0, 0.0]))


class TestEigNonsymmetric:
    def test_diagonal(self):
        res = eig_nonsymmetric(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sorted(res.values.real), [1.0, 2.0, 3.0])
        assert np.allclose(res.values.imag, 0.0)

    def test_rotation_has_imaginary_pair(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        res = eig_nonsymmetric(rot)
        assert np.allclose(sorted(res.values.imag), [-1.0, 1.0])

    def test_construct_then_decompose(self):
        rng = np.random.default_rng(2)
        basis = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        m = basis @ np.diag([1.0, 5.0, 9.0]) @ np.linalg.inv(basis)
        res = eig_nonsymmetric(m)
        assert np.allclose(sorted(res.values.real), [1.0, 5.0, 9.0], atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(PreconditionError):
            eig_nonsymmetric(np.ones((2, 3)))


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

    def test_wide_matrix_rejected(self):
        with pytest.raises(PreconditionError):
            condition_number(np.ones((2, 3)))


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

