"""Symmetric power iteration with deflation, and whitening."""

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


def _reference_run(arr, z, max_iters):
    """One restart, one contraction at a time: ``(z, converged, steps)``."""
    for steps in range(1, max_iters + 1):
        u = np.einsum("ijk,j,k->i", arr, z, z)
        norm = float(np.linalg.norm(u))
        if norm < 1e-14:
            return z, False, steps
        z_next = u / norm
        step = float(np.linalg.norm(z_next - z))
        z = z_next
        if step < 1e-12:
            return z, True, steps
    return z, False, max_iters


def _reference_decompose(t, k, seed=0, max_iters=500):
    """Reference for the lockstep rounds: the restarts of each round run one
    after another, from the columns of the round's (n, 10) block of the
    call's one ``(seed, TAG_POWER)`` stream.
    Returns ``(lambdas, vectors, residual, steps per round)``."""
    arr = t.data.copy()
    n = arr.shape[0]
    rng = derive_rng(seed, TAG_POWER)
    lambdas, vectors, round_steps = [], [], []
    for _ in range(k):
        block = rng.standard_normal((n, 10))
        best = None
        steps = []
        for restart in range(10):
            z0 = block[:, restart]
            z, converged, used = _reference_run(arr, z0 / np.linalg.norm(z0), max_iters)
            steps.append(used)
            if not converged:
                continue
            lam = float(z @ np.einsum("ijk,j,k->i", arr, z, z))
            if best is None or abs(lam) > abs(best[0]):
                best = (lam, z)
        lam, z = best
        arr -= lam * np.einsum("i,j,k->ijk", z, z, z)
        lambdas.append(lam)
        vectors.append(z)
        round_steps.append(steps)
    lambdas = np.array(lambdas)
    order = np.argsort(-np.abs(lambdas), kind="stable")
    signs = np.where(lambdas[order] < 0, -1.0, 1.0)
    vectors = np.column_stack(vectors)[:, order] * signs
    return lambdas[order] * signs, vectors, float(np.linalg.norm(arr.ravel())), round_steps


def _whitened_gmm_moment(n, k, samples, seed):
    x = gmm_sample(gmm_orthogonal_params(n, k, seed=seed), samples, seed=seed)
    return whiten(gmm_statistic_t3(x), gmm_second_moment(x), k)[0]


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


class TestLockstepRestarts:
    """The restarts of a round advance together and agree with running
    them one after another."""

    @staticmethod
    def _assert_matches_reference(t, k, seed, max_iters=500):
        od, residual = deflate_decompose(t, k, PowerConfig(seed=seed))
        lambdas, vectors, ref_residual, _ = _reference_decompose(t, k, seed, max_iters)
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

    def test_short_step_budget_matches_reference(self, monkeypatch):
        # at 8 steps some restarts of a round run out: only converged runs
        # may win, whatever their lambdas
        monkeypatch.setattr(power_method, "_MAX_ITERS", 8)
        t = synthesize(random_orthogonal_symmetric(16, 8, seed=32))
        self._assert_matches_reference(t, 8, seed=2, max_iters=8)

    def test_step_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(power_method, "_MAX_ITERS", 1)
        t = synthesize(random_orthogonal_symmetric(6, 3, seed=23))
        with pytest.raises(DegeneracyError) as exc_info:
            deflate_decompose(t, 3)
        assert exc_info.value.diagnostics == {"round": 0, "restarts": 10}

    def test_one_contraction_per_lockstep_step(self, monkeypatch):
        # a round costs as many contractions as its longest restart has
        # steps (plus one for the lambdas), not the sum over its restarts
        t = synthesize(random_orthogonal_symmetric(16, 8, seed=24))
        calls = []
        contract = power_method._contract

        def counting(arr, z):
            calls.append(z.shape[1])
            return contract(arr, z)

        monkeypatch.setattr(power_method, "_contract", counting)
        deflate_decompose(t, 1, PowerConfig(seed=5))
        steps = _reference_decompose(t, 1, seed=5)[3][0]
        assert set(calls) == {10}
        assert max(steps) <= len(calls) <= max(steps) + 2
        assert len(calls) < sum(steps) / 4


    def test_vanished_restarts_never_win(self, monkeypatch):
        # half the starts lie in span(e_2..e_5), orthogonal to both terms of
        # a diagonal tensor, so their contraction is exactly zero in every
        # round; the round must end when the other half converge, with one
        # of those as its winner
        arr = np.zeros((6, 6, 6))
        arr[0, 0, 0], arr[1, 1, 1] = 3.0, 2.0
        t = DenseTensor(arr)
        block = np.random.default_rng(27).standard_normal((6, 10))
        block[:2, ::2] = 0.0

        class FixedStarts:
            def standard_normal(self, shape):
                return block.copy()

        def fixed(*key):
            return FixedStarts()

        calls = []
        contract = power_method._contract

        def counting(arr, z):
            calls.append(z.shape[1])
            return contract(arr, z)

        monkeypatch.setattr(power_method, "derive_rng", fixed)
        monkeypatch.setattr(power_method, "_contract", counting)
        # the reference draws its starts through this module's name
        monkeypatch.setitem(globals(), "derive_rng", fixed)
        od, residual = deflate_decompose(t, 2)
        lambdas, vectors, ref_residual, round_steps = _reference_decompose(t, 2)
        assert all(steps[::2] == [1] * 5 for steps in round_steps)
        assert len(calls) == sum(max(steps) + 1 for steps in round_steps)
        assert np.allclose(np.linalg.norm(od.vectors, axis=0), 1.0, atol=1e-12)
        assert np.max(np.abs(od.lambdas - lambdas)) <= 1e-12
        assert np.max(np.abs(od.vectors - vectors)) <= 1e-12
        assert abs(residual - ref_residual) <= 1e-12
        assert np.allclose(od.lambdas, [3.0, 2.0], atol=1e-12)


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
