"""Simultaneous symmetric power iteration, and whitening."""

import json
import time

import numpy as np
import pytest

from tensordec import (
    CpDecomposition,
    DenseTensor,
    DegeneracyError,
    PowerConfig,
    PreconditionError,
    deflate_decompose,
    frobenius_norm,
    gmm_orthogonal_params,
    gmm_sample,
    jennrich_decompose,
    match_terms,
    random_orthogonal_symmetric,
    synthesize,
    whiten,
)
from tensordec import power_method
from tensordec.moment_learners import gmm_second_moment, gmm_statistic_t3
from tensordec.seeding import TAG_POWER, derive_rng


def _sym3(n, rng):
    a = rng.standard_normal((n, n, n))
    out = np.zeros_like(a)
    for axes in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        out += np.transpose(a, axes)
    return DenseTensor(out / 6.0)


def _gram_schmidt(u):
    """Modified Gram-Schmidt, one column at a time: the Q of a QR whose R has
    a positive diagonal."""
    q = np.array(u, dtype=float)
    for r in range(q.shape[1]):
        for j in range(r):
            q[:, r] -= (q[:, j] @ q[:, r]) * q[:, j]
        q[:, r] /= np.linalg.norm(q[:, r])
    return q


def _reference_decompose(t, k, seed):
    """Reference for the simultaneous iteration: each column contracted on its
    own, and Gram-Schmidt in place of QR, from the call's one (n, k) block
    of the ``(seed, TAG_POWER)`` stream.
    Returns ``(lambdas, vectors, residual, steps)``."""
    arr = t.data
    n = arr.shape[0]
    z = _gram_schmidt(derive_rng(seed, TAG_POWER).standard_normal((n, k)))
    for steps in range(1, 501):
        q = _gram_schmidt(np.column_stack(
            [np.einsum("ijk,j,k->i", arr, z[:, r], z[:, r]) for r in range(k)]))
        step = max(float(np.linalg.norm(q[:, r] - z[:, r])) for r in range(k))
        z = q
        if step < 1e-12:
            break
    lambdas = np.array([z[:, r] @ np.einsum("ijk,j,k->i", arr, z[:, r], z[:, r])
                        for r in range(k)])
    signs = np.where(lambdas < 0, -1.0, 1.0)
    order = np.argsort(-np.abs(lambdas), kind="stable")
    lambdas, vectors = (lambdas * signs)[order], (z * signs)[:, order]
    rebuilt = np.einsum("r,ir,jr,kr->ijk", lambdas, vectors, vectors, vectors)
    return lambdas, vectors, float(np.linalg.norm((arr - rebuilt).ravel())), steps


def _whitened_gmm_moment(n, k, samples, seed):
    x = gmm_sample(gmm_orthogonal_params(n, k, seed=seed), samples, seed=seed)
    return whiten(gmm_statistic_t3(x), gmm_second_moment(x), k)[0]


class TestDeflateDecompose:
    def test_zero_tensor_raises(self):
        # every column's contraction is zero, so R's whole diagonal vanishes
        t = DenseTensor(np.zeros((3, 3, 3)))
        with pytest.raises(DegeneracyError) as exc_info:
            deflate_decompose(t, 1)
        assert exc_info.value.diagnostics == {"steps": 1, "column": 0}
        json.dumps(exc_info.value.diagnostics, allow_nan=False)

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
        gram = od.vectors.T @ od.vectors
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-8
        assert np.max(np.abs(np.diag(gram) - 1.0)) <= 2e-10
        assert residual <= 1e-9 * frobenius_norm(t)
        found = CpDecomposition([od.vectors] * 3, od.lambdas)
        assert match_terms(found, truth).max_error <= 1e-9

    def test_k_zero_returns_whole_tensor_as_residual(self):
        truth = random_orthogonal_symmetric(5, 3, seed=4)
        t = synthesize(truth)
        od, residual = deflate_decompose(t, 0)
        assert od.lambdas.shape == (0,) and od.vectors.shape == (5, 0)
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


class TestSimultaneousIteration:
    """All k columns step together, one contraction and one QR per step, and
    agree with stepping them one column at a time."""

    @staticmethod
    def _assert_matches_reference(t, k, seed):
        od, residual = deflate_decompose(t, k, PowerConfig(seed=seed))
        lambdas, vectors, ref_residual, _ = _reference_decompose(t, k, seed)
        assert np.max(np.abs(od.lambdas - lambdas)) <= 1e-12
        assert np.max(np.abs(od.vectors - vectors)) <= 1e-12
        assert abs(residual - ref_residual) <= 1e-12

    @pytest.mark.parametrize("k", [1, 4, 8, 12, 16])
    def test_orthogonal_16_matches_reference(self, k):
        t = synthesize(random_orthogonal_symmetric(16, k, seed=20 + k))
        self._assert_matches_reference(t, k, seed=k)

    def test_noisy_matches_reference(self):
        t = synthesize(random_orthogonal_symmetric(6, 4, seed=21))
        noise = _sym3(6, np.random.default_rng(22))
        scale = 1e-3 * frobenius_norm(t) / frobenius_norm(noise)
        self._assert_matches_reference(DenseTensor(t.data + scale * noise.data), 4, seed=3)

    @pytest.mark.parametrize("n,k", [(8, 3), (16, 4)])
    def test_whitened_gmm_moment_matches_reference(self, n, k):
        t = _whitened_gmm_moment(n, k, 20_000, seed=n)
        self._assert_matches_reference(t, k, seed=n)

    def test_one_contraction_and_one_qr_per_step(self, monkeypatch):
        # every step contracts all k columns in one call; the QRs are the
        # start's and one per step, the contractions one per step and one
        # for the lambdas
        t = synthesize(random_orthogonal_symmetric(16, 8, seed=24))
        contractions, qrs = [], []
        contract, qr = power_method._contract, np.linalg.qr

        def counting_contract(arr, z):
            contractions.append(z.shape[1])
            return contract(arr, z)

        def counting_qr(a):
            qrs.append(a.shape)
            return qr(a)

        monkeypatch.setattr(power_method, "_contract", counting_contract)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        deflate_decompose(t, 8, PowerConfig(seed=5))
        steps = len(contractions) - 1
        assert set(contractions) == {8}
        assert qrs == [(16, 8)] * (steps + 1)
        assert abs(steps - _reference_decompose(t, 8, seed=5)[3]) <= 1
        assert steps <= 20

    def test_step_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(power_method, "_MAX_ITERS", 1)
        t = synthesize(random_orthogonal_symmetric(6, 3, seed=23))
        with pytest.raises(DegeneracyError) as exc_info:
            deflate_decompose(t, 3)
        diagnostics = exc_info.value.diagnostics
        assert set(diagnostics) == {"steps", "last_step"}
        assert diagnostics["steps"] == 1 and diagnostics["last_step"] >= 1e-12
        json.dumps(diagnostics, allow_nan=False)

    def test_rank_below_k_raises(self):
        # a rank-2 tensor asked for 3 terms: the third column's contraction
        # lies in the span of the first two, so R's third diagonal vanishes
        t = synthesize(random_orthogonal_symmetric(6, 2, seed=28))
        with pytest.raises(DegeneracyError) as exc_info:
            deflate_decompose(t, 3)
        assert exc_info.value.diagnostics == {"steps": 1, "column": 2}


class TestOneStreamPerCall:
    """All restarts of a call come from one generator."""

    def test_one_generator_per_call(self, monkeypatch):
        made = []
        derive = power_method.derive_rng

        def counting(*key):
            made.append(key)
            return derive(*key)

        monkeypatch.setattr(power_method, "derive_rng", counting)
        t = synthesize(random_orthogonal_symmetric(16, 8, seed=25))
        deflate_decompose(t, 8, PowerConfig(seed=6))
        assert made == [(6, TAG_POWER)]

    def test_same_seed_same_bytes(self):
        t = synthesize(random_orthogonal_symmetric(16, 8, seed=26))
        od_a, res_a = deflate_decompose(t, 8, PowerConfig(seed=7))
        od_b, res_b = deflate_decompose(t, 8, PowerConfig(seed=7))
        assert od_a.lambdas.tobytes() == od_b.lambdas.tobytes()
        assert od_a.vectors.tobytes() == od_b.vectors.tobytes()
        assert res_a == res_b


class TestWhiten:
    def test_orthonormal_components_pass_through(self):
        # orthonormal components: whitening maps them to an orthonormal
        # basis with lambdas w^(-1/2), and the back map returns the unit
        # components themselves (weights ride separately as lambda^(-2))
        truth = random_orthogonal_symmetric(5, 3, seed=9)
        v = truth.factors[0]
        m = v @ np.diag(truth.weights) @ v.T
        t = synthesize(truth)
        whitened, back_map = whiten(t, m, 3)
        od, residual = deflate_decompose(whitened, 3)
        assert residual <= 1e-9
        assert np.allclose(
            np.sort(od.lambdas), np.sort(truth.weights ** -0.5), atol=1e-10
        )
        recon = np.column_stack(
            [od.lambdas[i] * (back_map @ od.vectors[:, i]) for i in range(3)]
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
        whitened, back_map = whiten(DenseTensor(t3), m2, k)
        od, residual = deflate_decompose(whitened, k)
        assert residual <= 1e-8
        est = np.column_stack(
            [od.lambdas[i] * (back_map @ od.vectors[:, i]) for i in range(k)]
        )
        truth_dirs = CpDecomposition([comps] * 3, np.ones(k))
        found = CpDecomposition([est] * 3, np.ones(k))
        report = match_terms(found, truth_dirs)
        assert report.max_error <= 1e-6
        assert np.allclose(
            od.lambdas ** -2.0, w[report.permutation], atol=1e-8
        )

    def test_matches_mode_products_in_time(self):
        # an einsum over all six indices costs O(n^3 k^3), over a second at
        # n=48, k=12; one mode at a time it is milliseconds
        n, k = 48, 12
        rng = np.random.default_rng(14)
        t = _sym3(n, rng)
        comps = rng.standard_normal((n, k))
        m = comps @ comps.T
        started = time.perf_counter()
        whitened, _ = whiten(t, m, k)
        elapsed = time.perf_counter() - started
        forward, _ = power_method._whitening_maps(m, n, k)
        ref = t.data
        for _ in range(3):
            # contract the leading mode; the new mode goes last
            ref = np.tensordot(ref, forward, axes=([0], [0]))
        assert np.linalg.norm(whitened.data - ref) <= 1e-12 * np.linalg.norm(ref)
        assert elapsed < 0.3

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
