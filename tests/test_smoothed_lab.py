"""Perturbation helper, random-matrix experiments, pivot constructions."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats

from tensordec import (
    PreconditionError,
    build_pivot_basis,
    build_pivot_basis_l2,
    derive_rng,
    kr_sigma_experiment,
    projection_experiment,
)
from tensordec.smoothed_lab import (
    PivotBasis,
    PivotBasisL2,
    perturb_matrix,
    rotation_pair_basis,
)
from tensordec.tensor_core import khatri_rao
from tensordec import smoothed_lab
from tensordec.seeding import TAG_LAB


class TestPerturbation:
    def test_noise_variance_matches_model(self):
        # sample variance of N draws of N(0, rho^2/n): 4 sigma band via
        # var(s^2) = 2 sigma^4 / (N - 1)
        n, k, trials, rho = 8, 3, 10_000, 0.7
        rng = np.random.default_rng(2)
        base = np.zeros((n, k))
        draws = np.stack([perturb_matrix(base, rho, rng) for _ in range(trials)])
        target = rho**2 / n
        variances = draws.var(axis=0, ddof=1)
        band = 4.0 * target * np.sqrt(2.0 / (trials - 1))
        assert np.max(np.abs(variances - target)) < band

    def test_independent_seeds_uncorrelated(self):
        n = 100
        a = perturb_matrix(np.zeros((n, n)), 1.0, np.random.default_rng(3)).ravel()
        b = perturb_matrix(np.zeros((n, n)), 1.0, np.random.default_rng(4)).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.05


class TestRotationPairBasis:
    def test_orthonormal_and_completes_identity(self):
        q = rotation_pair_basis(6)
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)
        # stacked with the identity the outer squares sum to 2I, the
        # degeneracy that kills the self Khatri-Rao product
        u = np.column_stack([np.eye(6), q])
        assert np.allclose(u @ u.T, 2.0 * np.eye(6), atol=1e-12)

    def test_odd_n_rejected(self):
        with pytest.raises(PreconditionError):
            rotation_pair_basis(5)


def _expected_tail(values, scales):
    """The summary's tail entries, recomputed: trial count, quantiles, c grid,
    and per (key, fractions key, scale) the scale and the shares below c * scale."""
    q = np.quantile(values, [0.01, 0.1, 0.5, 0.9, 0.99])
    grid = [float(c) for c in np.logspace(-6, 0, 13)]
    out = {
        "trials": len(values),
        "quantiles": dict(zip(["q01", "q10", "q50", "q90", "q99"], q)),
        "c_grid": grid,
    }
    for key, fractions_key, scale in scales:
        out[key] = scale
        out[fractions_key] = [float(np.mean(values < c * scale)) for c in grid]
    return out


class TestKrSigmaExperiment:
    def test_order1_matches_gaussian_matrix_oracle(self):
        # at one factor the chain is a plain Gaussian matrix; compare the
        # median least singular value against an independent Monte Carlo
        n, k, rho, trials = 32, 16, 1.0, 200
        result = kr_sigma_experiment(n, k, order=1, rho=rho, trials=trials, seed=7)
        rng = np.random.default_rng(8)
        oracle = np.array([
            np.linalg.svd(
                rng.normal(0.0, rho / np.sqrt(n), (n, k)), compute_uv=False
            )[-1]
            for _ in range(trials)
        ])
        med, med_oracle = np.median(result.values), np.median(oracle)
        assert med_oracle / 3.0 < med < med_oracle * 3.0

    def test_order2_lower_tail_is_empty(self):
        n, k, rho = 8, 32, 1.0
        result = kr_sigma_experiment(n, k, order=2, rho=rho, trials=500, seed=9)
        threshold = 1e-6 * rho**2 / n**2
        assert np.all(result.values >= threshold)
        assert result.summary()["delta"] == pytest.approx(0.5)

    def test_adversarial_base_rank_deficient_until_perturbed(self):
        n, k = 4, 8
        result = kr_sigma_experiment(
            n, k, order=2, rho=1.0, trials=100, base="adversarial-basis", seed=10
        )
        assert result.unperturbed_sigma <= 1e-12
        assert np.all(result.values > 0.0)

    def test_adversarial_base_preconditions(self):
        with pytest.raises(PreconditionError):
            kr_sigma_experiment(4, 8, order=3, rho=1.0, trials=5,
                                base="adversarial-basis")
        with pytest.raises(PreconditionError):
            kr_sigma_experiment(4, 6, order=2, rho=1.0, trials=5,
                                base="adversarial-basis")
        with pytest.raises(PreconditionError):
            kr_sigma_experiment(5, 10, order=2, rho=1.0, trials=5,
                                base="adversarial-basis")

    def test_rank_beyond_ambient_rejected(self):
        with pytest.raises(PreconditionError):
            kr_sigma_experiment(3, 10, order=2, rho=1.0, trials=5)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_rho_must_be_positive_and_finite(self, rho):
        with pytest.raises(PreconditionError):
            kr_sigma_experiment(4, 4, order=2, rho=rho, trials=5)

    def test_summary_contents(self):
        result = kr_sigma_experiment(4, 4, order=2, rho=0.5, trials=50, seed=11)
        s = result.summary()
        q = s["quantiles"]
        assert q["q01"] <= q["q50"] <= q["q99"]
        assert s["trials"] == 50
        assert len(s["fraction_below"]) == len(s["c_grid"])
        # lower-tail fraction is nondecreasing in the threshold
        assert np.all(np.diff(s["fraction_below"]) >= 0)

    def test_summary_fractions_follow_values(self):
        result = kr_sigma_experiment(4, 4, order=2, rho=0.5, trials=50, seed=11)
        scale = 0.5**2 / 4**2
        s = result.summary()
        assert s["threshold_scale"] == scale
        assert s["fraction_below"] == [
            float(np.mean(result.values < c * scale)) for c in s["c_grid"]
        ]
        result.values = np.full(50, 1.0)
        assert result.summary()["fraction_below"] == [0.0] * len(s["c_grid"])

    @pytest.mark.parametrize("n, k, order, rho, base", [
        (4, 5, 3, 0.7, "zero"),
        (4, 8, 2, 1.3, "adversarial-basis"),
    ], ids=["zero", "adversarial"])
    def test_summary_recomputed_from_values(self, n, k, order, rho, base):
        result = kr_sigma_experiment(n, k, order, rho, 77, base=base, seed=3)
        expected = {
            "n": n, "k": k, "order": order, "rho": rho, "delta": 1.0 - k / n**order,
            **_expected_tail(result.values, [
                ("threshold_scale", "fraction_below", rho**order / n**order),
            ]),
        }
        if base != "zero":
            assert result.unperturbed_sigma <= 1e-12
            expected["unperturbed_sigma"] = result.unperturbed_sigma
        assert result.summary() == expected

    def test_underflowing_threshold_scale_rejected(self, monkeypatch):
        # rho^2 / n^2 = 6.25e-342 is subnormal: rejected before any trial
        monkeypatch.setattr(smoothed_lab, "_trial_values", None)
        with pytest.raises(PreconditionError, match="underflows"):
            kr_sigma_experiment(4, 2, order=2, rho=1e-170, trials=3)
        monkeypatch.undo()
        result = kr_sigma_experiment(4, 2, order=2, rho=1e-150, trials=3)
        assert result.summary()["threshold_scale"] == pytest.approx(6.25e-302)
        assert np.all(result.values > 0.0)

    def test_thread_pool_mapper_identical(self):
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = kr_sigma_experiment(
                4, 8, order=2, rho=1.0, trials=64, seed=12, mapper=pool.map
            )
        serial = kr_sigma_experiment(4, 8, order=2, rho=1.0, trials=64, seed=12)
        assert np.array_equal(threaded.values, serial.values)

    def test_trial_t_draws_from_stream_t_plus_one(self):
        # trials on both sides of a block edge match a direct recomputation
        values = kr_sigma_experiment(4, 8, order=2, rho=1.0, trials=77, seed=12).values
        for trial in (0, 63, 64, 76):
            rng = derive_rng(12, TAG_LAB, trial + 1)
            mats = [perturb_matrix(np.zeros((4, 8)), 1.0, rng) for _ in range(2)]
            assert values[trial] == np.linalg.svd(khatri_rao(*mats), compute_uv=False)[7]

    def test_chain_above_element_budget_rejected(self, monkeypatch):
        monkeypatch.setattr(smoothed_lab, "_ELEMENT_BUDGET", 256)
        assert kr_sigma_experiment(4, 4, order=3, rho=1.0, trials=2).values.size == 2
        with pytest.raises(PreconditionError):
            kr_sigma_experiment(4, 5, order=3, rho=1.0, trials=2)


def _reversed_order(f, items):
    items = list(items)
    return [f(item) for item in reversed(items)][::-1]


@pytest.mark.parametrize("trials", [1, 64, 77, 1000])
@pytest.mark.parametrize("experiment", [
    lambda mapper, trials: kr_sigma_experiment(4, 8, order=2, rho=1.0, trials=trials,
                                               seed=12, mapper=mapper),
    lambda mapper, trials: projection_experiment(8, 2, delta=0.5, rho=1.0, trials=trials,
                                                 seed=13, mapper=mapper),
], ids=["kr-sigma", "projection"])
def test_trial_values_independent_of_mapper(experiment, trials):
    serial = experiment(map, trials).values
    assert serial.shape == (trials,)
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = experiment(pool.map, trials).values
    assert serial.tobytes() == threaded.tobytes()
    assert serial.tobytes() == experiment(_reversed_order, trials).values.tobytes()


def _per_trial_reference(one_trial, trials, seed):
    """The loop the stacked blocks replaced: trial t alone on stream t + 1."""
    return np.array([one_trial(derive_rng(seed, TAG_LAB, t + 1)) for t in range(trials)])


def _kr_reference(n, k, order, base, trials, seed):
    if base == "zero":
        bases = [np.zeros((n, k))] * order
    else:
        u = np.column_stack([np.eye(n), rotation_pair_basis(n)])
        bases = [u, u]

    def one_trial(rng):
        chain = perturb_matrix(bases[0], 1.0, rng)
        for b in bases[1:]:
            chain = khatri_rao(chain, perturb_matrix(b, 1.0, rng))
        return float(np.linalg.svd(chain, compute_uv=False)[k - 1])

    return _per_trial_reference(one_trial, trials, seed)


def _projection_reference(n, order, trials, seed):
    ambient = n**order
    g = derive_rng(seed, TAG_LAB, 0).standard_normal((ambient, ambient // 2))
    basis, _ = np.linalg.qr(g)

    def one_trial(rng):
        vecs = [perturb_matrix(np.zeros(n), 1.0, rng) for _ in range(order)]
        flat = vecs[0] if order == 1 else np.outer(vecs[0], vecs[1]).ravel()
        return float(np.linalg.norm(basis.T @ flat))

    return _per_trial_reference(one_trial, trials, seed)


_KR_CASES = [(8, 32, 2, "zero"), (8, 16, 2, "adversarial-basis"), (3, 5, 3, "zero")]
_KR_IDS = ["zero", "adversarial", "order3"]


class TestStackedTrials:
    """Each block of trials takes its values from one stacked call; the
    values match the per-trial loop, including a partial last block."""

    TRIALS = 130

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n, k, order, base", _KR_CASES, ids=_KR_IDS)
    def test_kr_sigma_byte_equal_to_per_trial_loop(self, n, k, order, base, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = kr_sigma_experiment(n, k, order, 1.0, self.TRIALS, base=base,
                                         seed=21, mapper=pool.map).values
        reference = _kr_reference(n, k, order, base, self.TRIALS, 21)
        assert values.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n, order", [(32, 1), (6, 2)])
    def test_projection_matches_per_trial_loop(self, n, order, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = projection_experiment(n, order, 0.5, 1.0, self.TRIALS, seed=22,
                                           mapper=pool.map).values
        reference = _projection_reference(n, order, self.TRIALS, 22)
        assert np.max(np.abs(values - reference) / reference) <= 1e-14

    @pytest.mark.parametrize("n, k, order, base", _KR_CASES, ids=_KR_IDS)
    def test_one_svd_per_block(self, n, k, order, base, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        kr_sigma_experiment(n, k, order, 1.0, self.TRIALS, base=base, seed=23)
        blocks = -(-self.TRIALS // smoothed_lab._TRIAL_BLOCK)
        # the adversarial base adds one stack of one, the unperturbed chain
        assert len(calls) == blocks + (base != "zero")
        assert max(shape[0] for shape in calls) == smoothed_lab._TRIAL_BLOCK

    def test_stack_bounded_by_element_budget(self, monkeypatch):
        n, k, order = 4, 4, 3
        unbounded = kr_sigma_experiment(n, k, order, 1.0, self.TRIALS, seed=24).values
        task = threading.local()
        trial_values = smoothed_lab._trial_values

        def spy(draw, evaluate, *args):
            def evaluate_spied(inputs):
                stacks.append(len(inputs))
                task.calls += 1
                return evaluate(inputs)
            return trial_values(draw, evaluate_spied, *args)

        def counting_map(pool):
            def run_task(f, item):
                task.calls = 0
                f(item)
                calls_per_task.append(task.calls)
            return lambda f, items: pool.map(lambda item: run_task(f, item), items)

        monkeypatch.setattr(smoothed_lab, "_trial_values", spy)
        monkeypatch.setattr(smoothed_lab, "_ELEMENT_BUDGET", 3 * n**order * k)
        for threads in (1, 2):
            stacks, calls_per_task = [], []
            with ThreadPoolExecutor(max_workers=threads) as pool:
                bounded = kr_sigma_experiment(n, k, order, 1.0, self.TRIALS, seed=24,
                                              mapper=counting_map(pool)).values
            assert max(stacks) == 3
            assert sum(stacks) == self.TRIALS
            # each pool task is one block, and each block one stacked call
            assert calls_per_task == [1] * -(-self.TRIALS // 3)
            assert bounded.tobytes() == unbounded.tobytes()


class TestProjectionExperiment:
    def test_full_space_norm_is_chi_distributed(self):
        # W the whole space: the projection norm is the norm of an
        # N(0, rho^2/n I_n) vector, a scaled chi variable
        n, rho, trials = 32, 1.0, 1000
        result = projection_experiment(n, 1, delta=1.0, rho=rho, trials=trials,
                                       seed=13)
        med = np.median(result.values)
        chi_median = rho * np.sqrt(scipy.stats.chi2.ppf(0.5, n) / n)
        assert abs(med - chi_median) < 0.05 * chi_median
        assert abs(med - rho) < 0.10 * rho

    def test_half_space_lower_tail(self):
        n, rho = 32, 1.0
        result = projection_experiment(n, 1, delta=0.5, rho=rho, trials=1000,
                                       seed=14)
        assert result.summary()["subspace_dim"] == 16
        fraction = np.mean(result.values < 0.01 * rho / np.sqrt(n))
        assert fraction <= 0.01

    def test_order2_coordinate_subspace_tail_empty(self):
        n, rho = 16, 1.0
        result = projection_experiment(
            n, 2, delta=0.25, rho=rho, trials=500, subspace="coordinate", seed=15
        )
        assert result.summary()["subspace_dim"] == 64
        assert np.all(result.values >= 1e-4 * rho**2 / n**2)

    def test_ones_base_point_shifts_distribution(self):
        centered = projection_experiment(8, 1, delta=1.0, rho=0.1, trials=200,
                                         seed=16)
        shifted = projection_experiment(8, 1, delta=1.0, rho=0.1, trials=200,
                                        base_point="ones", seed=16)
        # base point has unit norm, noise scale 0.1: medians well separated
        assert np.median(shifted.values) > 3.0 * np.median(centered.values)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            projection_experiment(8, 3, delta=0.5, rho=1.0, trials=5)
        with pytest.raises(PreconditionError):
            projection_experiment(8, 1, delta=0.0, rho=1.0, trials=5)
        with pytest.raises(PreconditionError):
            projection_experiment(8, 1, delta=0.5, rho=1.0, trials=5,
                                  subspace="sparse")

    @pytest.mark.parametrize("rho, delta", [(np.inf, 0.5), (np.nan, 0.5),
                                            (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_rho_or_delta_rejected(self, rho, delta):
        with pytest.raises(PreconditionError):
            projection_experiment(8, 1, delta=delta, rho=rho, trials=5)

    def test_summary_fractions_follow_values(self):
        result = projection_experiment(4, 2, delta=0.5, rho=2.0, trials=20, seed=17)
        result.values = np.zeros(20)
        s = result.summary()
        assert s["trials"] == 20
        assert s["fraction_below_dim_scale"] == [1.0] * len(s["c_grid"])
        assert s["fraction_below_sqrt_scale"] == [1.0] * len(s["c_grid"])

    @pytest.mark.parametrize("n, order, delta, rho, subspace, base_point", [
        (32, 1, 0.5, 1.0, "gaussian", "zero"),
        (6, 2, 0.3, 0.4, "coordinate", "ones"),
        (4, 2, 1.0, 2.0, "gaussian", "ones"),
        (5, 1, 0.4, 0.9, "coordinate", "zero"),
    ], ids=["gaussian-zero", "coordinate-ones", "gaussian-ones", "coordinate-zero"])
    def test_summary_recomputed_from_values(self, n, order, delta, rho, subspace,
                                            base_point):
        result = projection_experiment(n, order, delta, rho, 130, subspace=subspace,
                                       base_point=base_point, seed=5)
        expected = {
            "n": n, "order": order, "delta": delta, "rho": rho,
            "subspace_dim": math.ceil(delta * n**order),
            **_expected_tail(result.values, [
                ("dim_scale", "fraction_below_dim_scale", rho**order / n**order),
                ("sqrt_scale", "fraction_below_sqrt_scale", rho**order / n ** (order / 2)),
            ]),
        }
        assert result.summary() == expected

    def test_underflowing_threshold_scale_rejected(self, monkeypatch):
        # rho / n = 2.5e-321 is subnormal: rejected before any trial
        monkeypatch.setattr(smoothed_lab, "_trial_values", None)
        with pytest.raises(PreconditionError, match="underflows"):
            projection_experiment(4, 1, delta=0.5, rho=1e-320, trials=3)
        monkeypatch.undo()
        result = projection_experiment(4, 1, delta=0.5, rho=1e-300, trials=3)
        assert result.summary()["dim_scale"] == pytest.approx(2.5e-301)

    @pytest.mark.parametrize("rho, message", [
        (1.0, "underflows"),
        (1e150, "delta \\* n\\^order must be finite"),
    ], ids=["threshold-scale", "subspace-dim"])
    def test_huge_n_rejected_before_any_trial(self, monkeypatch, rho, message):
        # n^2 = 1e310 is an int beyond float64: rho^2 / n^2 is compared in
        # logarithms, and delta * n^2 overflows once rho lifts that scale
        monkeypatch.setattr(smoothed_lab, "_trial_values", None)
        with pytest.raises(PreconditionError, match=message):
            projection_experiment(10**155, 2, delta=0.5, rho=rho, trials=1)

    @pytest.mark.parametrize("delta", [1e-200, 1e-320])
    def test_huge_n_with_finite_product_meets_the_budget(self, monkeypatch, delta):
        # delta * n^2 is 1e110 or 1e-10, both finite: the exact product gives
        # the subspace dimension, and the basis it needs is over budget
        monkeypatch.setattr(smoothed_lab, "_trial_values", None)
        with pytest.raises(PreconditionError, match="projection basis .* exceeds"):
            projection_experiment(10**155, 2, delta=delta, rho=1e150, trials=1)

    def test_summary_scales(self):
        result = projection_experiment(4, 2, delta=0.5, rho=2.0, trials=20, seed=17)
        s = result.summary()
        assert s["dim_scale"] == pytest.approx(4.0 / 16.0)
        assert s["sqrt_scale"] == pytest.approx(4.0 / 4.0)


class TestBuildPivotBasis:
    def test_two_coordinate_directions(self):
        basis = np.eye(5)[:, :2]
        pb = build_pivot_basis(basis)
        assert pb.count == 2
        assert len(set(pb.pivots)) == 2
        pb.validate(tol=1e-12)

    def test_random_subspace_full_extraction(self):
        rng = np.random.default_rng(18)
        basis, _ = np.linalg.qr(rng.standard_normal((32, 8)))
        pb = build_pivot_basis(basis)
        assert pb.count == 8
        pb.validate(tol=1e-10)
        # extracted vectors stay inside the span
        proj = basis @ (basis.T @ pb.vectors)
        assert np.allclose(proj, pb.vectors, atol=1e-10)

    def test_all_ones_direction(self):
        n = 6
        basis = np.ones((n, 1)) / np.sqrt(n)
        pb = build_pivot_basis(basis)
        assert pb.count == 1
        assert np.allclose(pb.vectors[:, 0], np.ones(n), atol=1e-12)
        pb.validate(tol=1e-12)

    @pytest.mark.parametrize("n, r, seed", [(5, 1, 0), (6, 6, 1), (32, 8, 2), (40, 17, 3),
                                            (64, 30, 4)])
    def test_matches_the_svd_restriction(self, n, r, seed):
        basis, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, r)))
        pb = build_pivot_basis(basis)
        # reference: restrict by the null space of the pivot row from a full SVD
        b, vectors, pivots = basis, [], []
        while b.shape[1]:
            row, col = np.unravel_index(np.argmax(np.abs(b)), b.shape)
            vectors.append(b[:, col] / b[row, col])
            pivots.append(int(row))
            b = b @ np.linalg.svd(b[row : row + 1], full_matrices=True)[2][1:].T
        assert pb.pivots == tuple(pivots)
        assert np.max(np.abs(pb.vectors - np.column_stack(vectors))) <= 1e-13

    def test_rejects_non_orthonormal(self):
        with pytest.raises(PreconditionError):
            build_pivot_basis(np.ones((4, 2)))

    def test_validate_flags_bad_basis(self):
        vectors = np.array([[1.0, 0.5], [0.0, 1.0]])
        bad = PivotBasis(vectors=vectors, pivots=(0, 0))
        with pytest.raises(PreconditionError):
            bad.validate()


class TestBuildPivotBasisL2:
    def test_coordinate_matrices_pivot_exactly(self):
        n = 3
        cells = [(0, 0), (0, 1), (1, 2)]
        cols = []
        for i, j in cells:
            e = np.zeros((n, n))
            e[i, j] = 1.0
            cols.append(e.ravel())
        pb = build_pivot_basis_l2(np.column_stack(cols), n)
        pb.validate(tol=1e-12)
        found = {
            (pb.rows[t], p % n)
            for t, r in enumerate(pb.rounds)
            for p in r.pivots
        }
        assert found == set(cells)

    def test_random_subspace_quarter_dimension(self):
        n = 8
        rng = np.random.default_rng(19)
        basis, _ = np.linalg.qr(rng.standard_normal((n * n, n * n // 4)))
        pb = build_pivot_basis_l2(basis, n)
        pb.validate(tol=1e-10)
        assert pb.count >= 1
        assert len(set(pb.rows)) == len(pb.rounds)
        assert sum(r.count for r in pb.rounds) == pb.count

    def test_single_matrix_subspace(self):
        rng = np.random.default_rng(20)
        m = rng.standard_normal((4, 4))
        basis = m.ravel()[:, None] / np.linalg.norm(m)
        pb = build_pivot_basis_l2(basis, 4)
        assert len(pb.rounds) == 1
        assert pb.count == 1
        pb.validate(tol=1e-12)

    def test_basis_length_checked(self):
        with pytest.raises(PreconditionError):
            build_pivot_basis_l2(np.eye(6)[:, :2], 3)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_n_rejected(self, n):
        # n^2 = 9 matches the basis length, so only the sign check catches -3
        with pytest.raises(PreconditionError, match="n must be at least 1"):
            build_pivot_basis_l2(np.eye(9)[:, :2], n)


def _max_violation_loop(pb):
    """Vector-by-vector reference for PivotBasis.max_violation."""
    worst = 0.0
    for j in range(pb.count):
        v = pb.vectors[:, j]
        worst = max(worst, float(np.max(np.abs(v))) - 1.0)
        worst = max(worst, abs(abs(v[pb.pivots[j]]) - 1.0))
        for jp in range(j):
            worst = max(worst, abs(v[pb.pivots[jp]]))
    return worst


def _max_violation_l2_loop(pb):
    """Matrix-by-matrix reference for PivotBasisL2.max_violation."""
    worst = 0.0
    n = math.isqrt(pb.rounds[0].vectors.shape[0])
    for t, r in enumerate(pb.rounds):
        cells = [divmod(p, n) for p in r.pivots]
        for j in range(r.count):
            mat = r.vectors[:, j].reshape(n, n)
            worst = max(worst, float(np.max(np.abs(mat))) - 1.0)
            worst = max(worst, abs(abs(mat[cells[j]]) - 1.0))
            for jp in range(j):
                worst = max(worst, abs(mat[cells[jp]]))
            for tp in range(t):
                worst = max(worst, float(np.max(np.abs(mat[pb.rows[tp], :]))))
    return worst


def _gate_basis(seed, trial, rows, period):
    """A random orthonormal basis as the acceptance gate for pivots draws it."""
    rng = derive_rng(seed, 97, trial)
    return np.linalg.qr(rng.standard_normal((rows, 1 + trial % period)))[0]


class TestMaxViolation:
    @pytest.mark.parametrize("trial", range(0, 200, 7))
    def test_vector_pivots_equal_the_loop(self, trial):
        pb = build_pivot_basis(_gate_basis(8, trial, 32, 16))
        assert pb.max_violation() == _max_violation_loop(pb)

    @pytest.mark.parametrize("trial", range(0, 50, 3))
    def test_matrix_pivots_equal_the_loop(self, trial):
        pb = build_pivot_basis_l2(_gate_basis(9, trial, 64, 32), 8)
        assert pb.max_violation() == _max_violation_l2_loop(pb)

    # (vector j, row or "pivot" of vector jp, new value, expected violation)
    @pytest.mark.parametrize("j, where, value, expected", [
        (2, "free", 1.5, 0.5),         # an entry beyond 1
        (2, 2, 0.75, 0.25),            # own pivot entry not +-1
        (3, 1, -0.3, 0.3),             # nonzero at an earlier pivot
        (1, 3, 0.3, None),             # a later vector's pivot is free
    ])
    def test_vector_pivots_break_one_property(self, j, where, value, expected):
        good = build_pivot_basis(_gate_basis(8, 5, 32, 16))
        vectors = good.vectors.copy()
        row = (sorted(set(range(32)) - set(good.pivots))[0] if where == "free"
               else good.pivots[where])
        vectors[row, j] = value
        bad = PivotBasis(vectors=vectors, pivots=good.pivots)
        got = bad.max_violation()
        assert got == _max_violation_loop(bad)
        if expected is None:
            assert got <= 1e-10
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    # (round, matrix, cell, new value, expected violation)
    @pytest.mark.parametrize("t, j, cell, value, expected", [
        (1, 1, "free", -1.25, 0.25),   # an entry beyond 1
        (1, 0, "own", 0.5, 0.5),       # own pivot entry not +-1
        (0, 2, "earlier", 0.4, 0.4),   # nonzero at an earlier pivot of the round
        (1, 1, "earlier row", 0.2, 0.2),  # nonzero on an earlier round's row
        (0, 0, "later", 0.4, None),    # a later matrix's pivot is free
    ])
    def test_matrix_pivots_break_one_property(self, t, j, cell, value, expected):
        good = build_pivot_basis_l2(_gate_basis(9, 15, 64, 32), 8)
        assert [r.count for r in good.rounds] == [3, 2]
        vectors = [r.vectors.copy() for r in good.rounds]
        row, cols = good.rows[t], [p % 8 for p in good.rounds[t].pivots]
        at = {
            "own": (row, cols[j]),
            "earlier": (row, cols[0]),
            "later": (row, cols[1]),
            "earlier row": (good.rows[0], 5),
            "free": (min(set(range(8)) - set(good.rows)), 6),
        }[cell]
        vectors[t][at[0] * 8 + at[1], j] = value
        bad = PivotBasisL2(rows=good.rows, rounds=tuple(
            PivotBasis(vectors=v, pivots=r.pivots) for v, r in zip(vectors, good.rounds)
        ))
        got = bad.max_violation()
        assert got == _max_violation_l2_loop(bad)
        if expected is None:
            assert got <= 1e-10
        else:
            assert got == pytest.approx(expected, abs=1e-12)

    def test_matrix_pivot_off_its_row_fails(self):
        # the last pivot of round 1 moves to a free row, and its matrix reads
        # exactly 1 there: every entry check still holds, but that round's
        # staircase no longer lies in its row
        good = build_pivot_basis_l2(_gate_basis(9, 15, 64, 32), 8)
        last = good.rounds[1]
        cell = min(set(range(8)) - set(good.rows)) * 8 + 6
        vectors = last.vectors.copy()
        vectors[cell, -1] = 1.0
        moved = PivotBasis(vectors=vectors, pivots=(*last.pivots[:-1], cell))
        bad = PivotBasisL2(rows=good.rows, rounds=(good.rounds[0], moved))
        assert moved.invariants_pass()
        assert bad.max_violation() <= 1e-10
        assert not bad._distinct()
        assert not bad.invariants_pass()
        with pytest.raises(PreconditionError, match="distinct=False"):
            bad.validate()
