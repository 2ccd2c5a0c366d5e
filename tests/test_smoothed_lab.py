"""Perturbation helper, random-matrix experiments, pivot constructions."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats

from tensordec import (
    PivotBasis,
    PreconditionError,
    build_pivot_basis,
    build_pivot_basis_l2,
    derive_rng,
    khatri_rao,
    kr_sigma_experiment,
    projection_experiment,
)
from tensordec.smoothed_lab import perturb_matrix, rotation_pair_basis
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
        assert result.delta == pytest.approx(0.5)

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
        stacks = []
        trial_values = smoothed_lab._trial_values

        def spy(draw, evaluate, *args):
            def evaluate_spied(inputs):
                stacks.append(len(inputs))
                return evaluate(inputs)
            return trial_values(draw, evaluate_spied, *args)

        monkeypatch.setattr(smoothed_lab, "_trial_values", spy)
        monkeypatch.setattr(smoothed_lab, "_ELEMENT_BUDGET", 3 * n**order * k)
        bounded = kr_sigma_experiment(n, k, order, 1.0, self.TRIALS, seed=24).values
        assert max(stacks) == 3
        assert sum(stacks) == self.TRIALS
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
        assert result.subspace_dim == 16
        fraction = np.mean(result.values < 0.01 * rho / np.sqrt(n))
        assert fraction <= 0.01

    def test_order2_coordinate_subspace_tail_empty(self):
        n, rho = 16, 1.0
        result = projection_experiment(
            n, 2, delta=0.25, rho=rho, trials=500, subspace="coordinate", seed=15
        )
        assert result.subspace_dim == 64
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
            (pb.rows[t], c)
            for t in range(pb.rounds)
            for c in pb.pivot_columns[t]
        }
        assert found == set(cells)

    def test_random_subspace_quarter_dimension(self):
        n = 8
        rng = np.random.default_rng(19)
        basis, _ = np.linalg.qr(rng.standard_normal((n * n, n * n // 4)))
        pb = build_pivot_basis_l2(basis, n)
        pb.validate(tol=1e-10)
        assert pb.count >= 1
        assert len(set(pb.rows)) == pb.rounds
        assert sum(pb.row_counts()) == pb.count

    def test_single_matrix_subspace(self):
        rng = np.random.default_rng(20)
        m = rng.standard_normal((4, 4))
        basis = m.ravel()[:, None] / np.linalg.norm(m)
        pb = build_pivot_basis_l2(basis, 4)
        assert pb.rounds == 1
        assert pb.count == 1
        pb.validate(tol=1e-12)

    def test_basis_length_checked(self):
        with pytest.raises(PreconditionError):
            build_pivot_basis_l2(np.eye(6)[:, :2], 3)
