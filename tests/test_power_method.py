"""Symmetric power iteration with deflation, and whitening."""

import numpy as np
import pytest

from tensordec import (
    CpDecomposition,
    DenseTensor,
    DegeneracyError,
    OrthogonalDecomposition,
    PowerConfig,
    PreconditionError,
    deflate_decompose,
    frobenius_norm,
    jennrich_decompose,
    match_terms,
    random_orthogonal_symmetric,
    synthesize,
    whiten,
)


def _sym3(n, rng):
    a = rng.standard_normal((n, n, n))
    out = np.zeros_like(a)
    for axes in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(a, axes)
    return DenseTensor(out / 6.0)


class TestOrthogonalDecomposition:
    def test_validate_accepts_orthonormal(self):
        od = OrthogonalDecomposition(np.array([2.0, 1.0]), np.eye(3)[:, :2])
        od.validate()
        assert od.rank == 2
        assert od.max_cross_inner() == 0.0
        assert od.max_norm_deviation() == 0.0

    def test_validate_rejects_correlated_columns(self):
        v = np.array([[1.0, 0.9], [0.0, np.sqrt(1 - 0.81)]])
        od = OrthogonalDecomposition(np.array([1.0, 1.0]), v)
        with pytest.raises(PreconditionError):
            od.validate()

    def test_validate_rejects_unnormalized(self):
        od = OrthogonalDecomposition(np.array([1.0]), np.array([[2.0], [0.0]]))
        with pytest.raises(PreconditionError):
            od.validate()

    def test_shape_checks(self):
        with pytest.raises(PreconditionError):
            OrthogonalDecomposition(np.array([1.0, 2.0]), np.eye(3)[:, :1])


class TestDeflateDecompose:
    def test_zero_tensor_raises(self):
        # every start collapses to a zero contraction, so no run converges
        t = DenseTensor(np.zeros((3, 3, 3)))
        with pytest.raises(DegeneracyError) as exc_info:
            deflate_decompose(t, 1)
        assert exc_info.value.diagnostics == {"round": 0, "restarts": 10}

    def test_rejects_asymmetric(self):
        arr = np.zeros((3, 3, 3))
        arr[0, 1, 2] = 1.0
        with pytest.raises(PreconditionError):
            deflate_decompose(DenseTensor(arr), 1)

    def test_rejects_noncubic(self):
        with pytest.raises(PreconditionError):
            deflate_decompose(DenseTensor(np.zeros((2, 3, 2))), 1)

    def test_graded_spectrum_recovered_in_order(self):
        n = 4
        weights = [4.0, 3.0, 2.0, 1.0]
        t = synthesize(CpDecomposition([np.eye(n)] * 3, weights))
        od, residual = deflate_decompose(t, n)
        assert np.allclose(od.lambdas, weights, atol=1e-10)
        assert np.allclose(np.abs(od.vectors), np.eye(n), atol=1e-8)
        assert residual <= 1e-10

    def test_random_orthogonal_roundtrip(self):
        truth = random_orthogonal_symmetric(8, 5, seed=3)
        t = synthesize(truth)
        od, residual = deflate_decompose(t, 5)
        od.validate(ortho_tol=1e-8, norm_tol=1e-10)
        assert residual <= 1e-9 * frobenius_norm(t)
        found = CpDecomposition([od.vectors] * 3, od.lambdas)
        assert match_terms(found, truth).max_error <= 1e-9

    def test_k_zero_returns_whole_tensor_as_residual(self):
        truth = random_orthogonal_symmetric(5, 3, seed=4)
        t = synthesize(truth)
        od, residual = deflate_decompose(t, 0)
        assert od.rank == 0
        assert residual == pytest.approx(frobenius_norm(t), rel=1e-12)

    def test_noise_degrades_gracefully(self):
        truth = random_orthogonal_symmetric(6, 4, seed=5)
        t = synthesize(truth)
        rng = np.random.default_rng(6)
        noise = rng.standard_normal((6, 6, 6))
        noise = (noise + noise.transpose(0, 2, 1) + noise.transpose(1, 0, 2)
                 + noise.transpose(1, 2, 0) + noise.transpose(2, 0, 1)
                 + noise.transpose(2, 1, 0)) / 6.0
        noise *= 1e-8 * frobenius_norm(t) / np.linalg.norm(noise.ravel())
        noisy = DenseTensor(t.data + noise)
        od, _ = deflate_decompose(noisy, 4)
        found = CpDecomposition([od.vectors] * 3, od.lambdas)
        assert match_terms(found, truth).max_error <= 1e-5

    def test_k_bounds(self):
        t = synthesize(random_orthogonal_symmetric(3, 2, seed=7))
        with pytest.raises(PreconditionError):
            deflate_decompose(t, 4)
        with pytest.raises(PreconditionError):
            deflate_decompose(t, -1)

    def test_config_seed_changes_nothing_material(self):
        truth = random_orthogonal_symmetric(6, 3, seed=8)
        t = synthesize(truth)
        od_a, _ = deflate_decompose(t, 3, PowerConfig(seed=1))
        od_b, _ = deflate_decompose(t, 3, PowerConfig(seed=2))
        assert np.allclose(od_a.lambdas, od_b.lambdas, atol=1e-9)
        assert np.allclose(od_a.vectors, od_b.vectors, atol=1e-8)


class TestWhiten:
    def test_orthonormal_components_pass_through(self):
        # orthonormal components: whitening maps them to an orthonormal
        # basis with lambdas w^(-1/2), and the back map returns the unit
        # components themselves (weights ride separately as lambda^(-2))
        truth = random_orthogonal_symmetric(5, 3, seed=9)
        v = truth.factors[0]
        m = v @ np.diag(truth.weights) @ v.T
        t = synthesize(truth)
        res = whiten(t, m, 3)
        od, residual = deflate_decompose(res.tensor, 3)
        assert residual <= 1e-9
        assert np.allclose(
            np.sort(od.lambdas), np.sort(truth.weights ** -0.5), atol=1e-10
        )
        recon = np.column_stack(
            [od.lambdas[i] * (res.back_map @ od.vectors[:, i]) for i in range(3)]
        )
        found = CpDecomposition([recon] * 3, np.ones(3))
        truth_dirs = CpDecomposition([v] * 3, np.ones(3))
        report = match_terms(found, truth_dirs)
        assert report.max_error <= 1e-8
        # implied weights follow the same permutation
        implied = od.lambdas ** -2.0
        assert np.allclose(implied, truth.weights[report.permutation], atol=1e-9)

    def test_skewed_components_whitened_pipeline(self):
        # non-orthogonal components with condition number about 5
        rng = np.random.default_rng(10)
        n = k = 3
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = u @ np.diag([5.0, 2.0, 1.0]) @ u.T
        comps = b @ np.linalg.qr(rng.standard_normal((n, k)))[0]
        w = np.array([1.5, 1.0, 0.7])
        m2 = comps @ np.diag(w) @ comps.T
        t3 = np.einsum("i,ai,bi,ci->abc", w, comps, comps, comps)
        res = whiten(DenseTensor(t3), m2, k)
        od, residual = deflate_decompose(res.tensor, k)
        assert residual <= 1e-8
        est = np.column_stack(
            [od.lambdas[i] * (res.back_map @ od.vectors[:, i]) for i in range(k)]
        )
        truth_dirs = CpDecomposition([comps] * 3, np.ones(k))
        found = CpDecomposition([est] * 3, np.ones(k))
        report = match_terms(found, truth_dirs)
        assert report.max_error <= 1e-6
        assert np.allclose(
            od.lambdas ** -2.0, w[report.permutation], atol=1e-8
        )

    def test_rank_deficient_moment_rejected(self):
        truth = random_orthogonal_symmetric(4, 2, seed=11)
        v = truth.factors[0]
        m = v @ np.diag(truth.weights) @ v.T  # rank 2
        t = synthesize(truth)
        with pytest.raises(PreconditionError):
            whiten(t, m, 3)

    def test_moment_shape_and_symmetry_checks(self):
        t = synthesize(random_orthogonal_symmetric(4, 2, seed=12))
        with pytest.raises(PreconditionError):
            whiten(t, np.eye(3), 2)
        skew = np.eye(4)
        skew[0, 1] = 0.5
        with pytest.raises(PreconditionError):
            whiten(t, skew, 2)

    def test_agreement_with_jennrich(self):
        # same symmetric tensor through both algorithms
        truth = random_orthogonal_symmetric(6, 4, seed=13)
        t = synthesize(truth)
        od, _ = deflate_decompose(t, 4)
        via_power = CpDecomposition([od.vectors] * 3, od.lambdas)
        via_jennrich, _ = jennrich_decompose(t)
        assert match_terms(via_power, via_jennrich).max_error <= 1e-5
