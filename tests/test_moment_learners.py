"""Mixture and chain learners: samplers, moment statistics, recovery."""

import functools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tensordec import (
    DegeneracyError,
    PreconditionError,
    gmm_learn,
    gmm_learn_from_moments,
    gmm_orthogonal_params,
    gmm_sample,
    gmm_smoothed_params,
    gmm_statistic_exact,
    hmm_exact_moments,
    hmm_learn,
    hmm_learn_from_moments,
    hmm_random_params,
    hmm_sample,
    match_columns,
)
from tensordec import JennrichConfig, jennrich_decompose, moment_learners
from tensordec.matrix_ops import pseudoinverse
from tensordec.moment_learners import (
    _MOMENT_BLOCK,
    _PRODUCT_BLOCK,
    GmmParams,
    HmmParams,
    _corrected_t3,
    gmm_second_moment,
    gmm_statistic_t3,
    hmm_empirical_moments,
    hmm_moment_tensor,
    stationary_distribution,
)
from tensordec.seeding import TAG_SAMPLER, derive_rng, fill_blocks
from tensordec.tensor_core import CpDecomposition, _als_refine, khatri_rao


def _als_polish(t, decomposition):
    """The order-3 ALS polish the shared refinement replaced, kept here as
    the reference for the chain learner."""
    data = t.data
    n1, n2, n3 = data.shape
    unfold = (
        data.reshape(n1, n2 * n3),
        data.transpose(1, 0, 2).reshape(n2, n1 * n3),
        data.transpose(2, 0, 1).reshape(n3, n1 * n2),
    )
    a, b, c = (f.copy() for f in decomposition.factors)
    a = a * decomposition.weights[None, :]
    for _ in range(10):
        previous = a
        a = unfold[0] @ khatri_rao(b, c) @ pseudoinverse((b.T @ b) * (c.T @ c))
        b = unfold[1] @ khatri_rao(a, c) @ pseudoinverse((a.T @ a) * (c.T @ c))
        c = unfold[2] @ khatri_rao(a, b) @ pseudoinverse((a.T @ a) * (b.T @ b))
        if np.linalg.norm(a - previous) <= 1e-12 * np.linalg.norm(a):
            break
    return CpDecomposition([a, b, c], np.ones(a.shape[1]))


def assert_rel_close(got, ref, rel):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


class TestGmmSample:
    def test_single_zero_mean_component_clt(self):
        n = 4
        params = GmmParams(means=np.zeros((n, 1)))
        samples = gmm_sample(params, 10_000, seed=0)
        assert samples.shape == (10_000, n)
        # per-coordinate mean of N(0,1) draws: 4 sigma band
        assert np.all(np.abs(samples.mean(axis=0)) < 4.0 / np.sqrt(10_000))

    def test_single_component_recovers_mean(self):
        mu = np.eye(5)[:, :1]
        samples = gmm_sample(GmmParams(means=mu), 10_000, seed=1)
        assert np.linalg.norm(samples.mean(axis=0) - mu[:, 0]) < 0.1

    @pytest.mark.parametrize("n, k", [(8, 0), (8, -1), (3, 4)])
    def test_orthogonal_means_need_k_between_one_and_n(self, n, k):
        with pytest.raises(PreconditionError, match=rf"1 <= k <= n, got k={k}, n={n}"):
            gmm_orthogonal_params(n, k)

    def test_fixed_seed_bit_identical(self):
        params = gmm_orthogonal_params(4, 2, seed=2)
        a = gmm_sample(params, 2_500, seed=7)
        b = gmm_sample(params, 2_500, seed=7)
        assert np.array_equal(a, b)

    def test_block_structure_is_mapper_independent(self):
        params = gmm_orthogonal_params(3, 2, seed=3)
        serial = gmm_sample(params, 150_000, seed=5, mapper=map)
        shuffled = gmm_sample(
            params, 150_000, seed=5, mapper=lambda f, xs: map(f, list(xs))
        )
        assert np.array_equal(serial, shuffled)

    @pytest.mark.parametrize("sampler", [
        lambda mapper: gmm_sample(gmm_orthogonal_params(3, 2, seed=3), 250_001,
                                  seed=5, mapper=mapper),
        lambda mapper: hmm_sample(hmm_random_params(3, 2, seed=3), 250_001,
                                  seed=5, mapper=mapper),
    ], ids=["gmm", "hmm"])
    def test_blocks_stacked_in_order(self, sampler):
        # each block lands in its own rows whatever order the mapper runs them
        counts = []

        def reversed_order(f, specs):
            specs = list(specs)
            counts.append(len(specs))
            return [f(spec) for spec in reversed(specs)][::-1]

        assert np.array_equal(sampler(reversed_order), sampler(map))
        assert counts == [3]

    def test_sample_count_validated(self):
        with pytest.raises(PreconditionError):
            gmm_sample(GmmParams(means=np.ones((2, 1))), 0)


class TestGmmStatistics:
    def test_t3_formula_on_constant_samples(self):
        # zero injected noise: the statistic is the exact formula value
        mu = np.array([1.0, -2.0, 0.5])
        samples = np.tile(mu, (50, 1))
        est = gmm_statistic_t3(samples)
        n = 3
        eye = np.eye(n)
        expected = np.einsum("a,b,c->abc", mu, mu, mu) - (
            np.einsum("a,bc->abc", mu, eye)
            + np.einsum("b,ac->abc", mu, eye)
            + np.einsum("c,ab->abc", mu, eye)
        )
        assert np.allclose(est.data, expected, atol=1e-12)

    def test_zero_mean_statistic_vanishes(self):
        n, big_n = 4, 100_000
        params = GmmParams(means=np.zeros((n, 1)))
        samples = gmm_sample(params, big_n, seed=4)
        est = gmm_statistic_t3(samples)
        # entry (a,b,c) averages x_a x_b x_c with variance at most
        # E[x^6] = 15; the mean correction adds O(1/sqrt(N)) more
        band = 5.0 * (np.sqrt(15.0) + 3.0) / np.sqrt(big_n)
        assert np.max(np.abs(est.data)) < band

    def test_unbiased_against_exact_statistic(self):
        # entrywise 5 sigma bands computed from the sample itself
        n, k, big_n = 4, 2, 100_000
        rng = np.random.default_rng(5)
        params = GmmParams(means=rng.uniform(-0.8, 0.8, (n, k)))
        samples = gmm_sample(params, big_n, seed=6)
        est = gmm_statistic_t3(samples)
        exact = gmm_statistic_exact(params, order=3)

        prods = np.einsum("sa,sb,sc->sabc", samples[:50_000], samples[:50_000],
                          samples[:50_000])
        std3 = prods.std(axis=0)
        std1 = samples.std(axis=0)
        eye = np.eye(n)
        band = 5.0 / np.sqrt(big_n) * (
            std3
            + np.einsum("a,bc->abc", std1, eye)
            + np.einsum("b,ac->abc", std1, eye)
            + np.einsum("c,ab->abc", std1, eye)
        )
        assert np.all(np.abs(est.data - exact.data) < band)

    def test_exact_statistic_small_cases(self):
        e1 = np.eye(3)[:, :1]
        t = gmm_statistic_exact(GmmParams(means=e1), order=3)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(t.data, expected)
        # antipodal means cancel at odd order
        mu = np.array([[1.0, -1.0], [2.0, -2.0]])
        t = gmm_statistic_exact(GmmParams(means=mu), order=3)
        assert np.allclose(t.data, 0.0, atol=1e-15)

    @pytest.mark.parametrize("order, n, k", [(3, 4, 6), (5, 3, 4)])
    def test_exact_statistic_matches_outer_product_sum(self, order, n, k):
        means = np.random.default_rng(order).standard_normal((n, k))
        expected = np.zeros((n,) * order)
        for mu in means.T:
            term = mu
            for _ in range(order - 1):
                term = np.multiply.outer(term, mu)
            expected += term / k
        t = gmm_statistic_exact(GmmParams(means=means), order=order)
        assert np.linalg.norm(t.data - expected) <= 1e-14 * np.linalg.norm(expected)

    def test_exact_statistic_order5(self):
        mu = np.array([[2.0], [0.0]])
        t = gmm_statistic_exact(GmmParams(means=mu), order=5)
        assert t.shape == (2, 2, 2, 2, 2)
        assert t.data[0, 0, 0, 0, 0] == pytest.approx(32.0)

    def test_second_moment_subtracts_identity(self):
        mu = np.array([1.0, -1.0, 2.0])
        samples = np.tile(mu, (40, 1))
        m = gmm_second_moment(samples)
        assert np.allclose(m, np.outer(mu, mu) - np.eye(3), atol=1e-12)


def _corrected_reference(y, cov):
    """Third moment of the rows of ``y`` less sym(mean(y) (x) cov), by einsum."""
    m1 = y.mean(axis=0)
    return np.einsum("sa,sb,sc->abc", y, y, y) / y.shape[0] - (
        np.einsum("a,bc->abc", m1, cov)
        + np.einsum("b,ac->abc", m1, cov)
        + np.einsum("c,ab->abc", m1, cov)
    )


class TestThirdMomentKernel:
    # the row-blocked third moments, on both sides of a block boundary
    ROWS = [1, _PRODUCT_BLOCK - 1, _PRODUCT_BLOCK, _PRODUCT_BLOCK + 1]

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_symmetric_matches_einsum(self, n_rows):
        x = np.random.default_rng(n_rows).standard_normal((n_rows, 5)) + 1.0
        ref = _corrected_reference(x, np.eye(5))
        assert_rel_close(gmm_statistic_t3(x).data, ref, 1e-12)

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_asymmetric_widths_match_einsum(self, n_rows):
        # context 2 fuses two observations a side: widths n^2, n and n^2
        windows = np.random.default_rng(n_rows + 1).standard_normal((n_rows, 5, 3))
        left = np.einsum("si,sj->sij", windows[:, 1], windows[:, 0]).reshape(n_rows, -1)
        right = np.einsum("si,sj->sij", windows[:, 3], windows[:, 4]).reshape(n_rows, -1)
        ref = np.einsum("sa,sb,sc->abc", left, windows[:, 2], right) / n_rows
        assert_rel_close(hmm_empirical_moments(windows, 2).tensor.data, ref, 1e-12)

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_strided_window_views_match_einsum(self, n_rows):
        # windows handed in as a strided view take the same pass, uncopied
        base = np.random.default_rng(n_rows + 2).standard_normal((n_rows, 3, 12))
        windows = base[:, :, ::2]
        assert not windows.flags.c_contiguous
        a, b, c = (windows[:, t, :] for t in range(3))
        ref = np.einsum("sa,sb,sc->abc", a, b, c) / n_rows
        assert_rel_close(hmm_empirical_moments(windows, 1).tensor.data, ref, 1e-12)

    @pytest.mark.parametrize("n_rows", ROWS)
    def test_width_three_matches_einsum(self, n_rows):
        # the whitened moment of a three-component mixture, y = x w never formed
        rng = np.random.default_rng(n_rows + 3)
        x = rng.standard_normal((n_rows, 6)) + 0.5
        w = rng.standard_normal((6, 3))
        assert_rel_close(_corrected_t3(x, w).data, _corrected_reference(x @ w, w.T @ w), 1e-12)


def _take_gmm_sample(params, n_samples, seed):
    """The mixture sampler with one np.take of means per block: the fill the
    row-chunked one replaced, kept as the reference its bytes are pinned to."""
    def fill(block, rows):
        rng = derive_rng(seed, TAG_SAMPLER, block)
        labels = rng.integers(params.k, size=len(rows))
        rng.standard_normal(out=rows)
        rows += np.take(params.means.T, labels, axis=0)

    return fill_blocks(np.empty((n_samples, params.dimension)), _MOMENT_BLOCK, fill)


def _take_hmm_sample(params, n_windows, window, seed):
    """The chain sampler with whole-block state paths and one np.take of
    means per block, likewise kept as the byte reference."""
    k = params.k
    cum_w = np.cumsum(params.stationary)
    cum_p = np.cumsum(params.transition, axis=0)

    def fill(block, rows):
        count = len(rows)
        rng = derive_rng(seed, TAG_SAMPLER, block)
        states = np.empty((count, window), dtype=np.int64)
        states[:, 0] = np.minimum(
            np.searchsorted(cum_w, rng.random(count), side="right"), k - 1
        )
        for t in range(1, window):
            u = rng.random(count)
            cums = cum_p[:, states[:, t - 1]]
            states[:, t] = np.minimum((u[None, :] >= cums).sum(axis=0), k - 1)
        if params.noise_scale > 0:
            rng.standard_normal(out=rows)
            rows *= params.noise_scale
            rows += np.take(params.observation_means.T, states, axis=0)
        else:
            np.take(params.observation_means.T, states, axis=0, out=rows)

    out = np.empty((n_windows, window, params.dimension))
    return fill_blocks(out, _MOMENT_BLOCK, fill)


@pytest.fixture(params=["map", "pool"])
def mapper(request):
    if request.param == "map":
        yield map
    else:
        with ThreadPoolExecutor(max_workers=2) as pool:
            yield pool.map


class TestSamplerBytes:
    # a short last stream block whose last row chunk is short as well
    N_ROWS = _MOMENT_BLOCK + _PRODUCT_BLOCK + 7

    def test_gmm_bytes_equal_the_take_fill(self, mapper):
        params = gmm_orthogonal_params(8, 3, seed=40)
        got = gmm_sample(params, self.N_ROWS, seed=41, mapper=mapper)
        assert got.tobytes() == _take_gmm_sample(params, self.N_ROWS, 41).tobytes()

    @pytest.mark.parametrize("window", [3, 5])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_hmm_bytes_equal_the_take_fill(self, mapper, window, noise):
        params = hmm_random_params(6, 3, seed=42, noise_scale=noise)
        got = hmm_sample(params, self.N_ROWS, window=window, seed=43, mapper=mapper)
        ref = _take_hmm_sample(params, self.N_ROWS, window, 43)
        assert got.tobytes() == ref.tobytes()


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates beyond what already exists."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestScratchDoesNotGrowWithSamples:
    # N and 2N are whole numbers of row blocks, so a pass of fixed blocks
    # peaks at the same scratch on both; an N-row temporary would double.
    N_ROWS = 12 * _PRODUCT_BLOCK

    def test_hmm_moments_at_window_5(self):
        params = hmm_random_params(6, 3, seed=44, noise_scale=0.1)
        windows = hmm_sample(params, 2 * self.N_ROWS, window=5, seed=45)
        peaks = [_traced_peak(hmm_empirical_moments, windows[:rows], 2)
                 for rows in (self.N_ROWS, 2 * self.N_ROWS)]
        one_block = windows[:_PRODUCT_BLOCK].nbytes
        assert peaks[1] - peaks[0] <= one_block, peaks

    def test_gmm_learn(self):
        params = gmm_orthogonal_params(8, 3, norm=5.0, seed=46)
        samples = gmm_sample(params, 2 * self.N_ROWS, seed=47)
        peaks = [_traced_peak(gmm_learn, samples[:rows], 3)
                 for rows in (self.N_ROWS, 2 * self.N_ROWS)]
        one_block = samples[:_PRODUCT_BLOCK].nbytes
        assert peaks[1] - peaks[0] <= one_block, peaks


class TestGmmLearn:
    def test_single_component(self):
        params = GmmParams(means=3.0 * gmm_orthogonal_params(8, 1, seed=7).means / 5.0)
        samples = gmm_sample(params, 10_000, seed=8)
        result = gmm_learn(samples, 1, truth=params)
        assert result.max_mean_error < 0.05
        assert result.weights.tolist() == [1.0]

    def test_two_axis_aligned_components(self):
        n = 8
        means = np.zeros((n, 2))
        means[0, 0] = 3.0
        means[1, 1] = 3.0
        params = GmmParams(means=means)
        samples = gmm_sample(params, 200_000, seed=9)
        result = gmm_learn(samples, 2, truth=params)
        assert result.max_mean_error < 0.1

    def test_three_orthogonal_components(self):
        params = gmm_orthogonal_params(8, 3, norm=5.0, seed=10)
        samples = gmm_sample(params, 500_000, seed=11)
        result = gmm_learn(samples, 3, truth=params)
        assert result.max_mean_error < 0.25

    def test_methods_agree_on_exact_moments(self):
        params = gmm_orthogonal_params(6, 3, norm=4.0, seed=12)
        t3 = gmm_statistic_exact(params, order=3)
        m2 = params.means @ params.means.T / params.k
        via_j = gmm_learn_from_moments(t3, 3, method="jennrich")
        via_p = gmm_learn_from_moments(t3, 3, method="power", second_moment=m2)
        for result in (via_j, via_p):
            perm, errors = match_columns(result.means, params.means)
            assert max(errors) < 1e-6
        assert np.allclose(via_j.weights, 1.0 / 3.0)

    def test_overcomplete_means_from_analytic_fifth_moment(self):
        # more components than dimensions: needs the flattened pipeline
        params = gmm_smoothed_params(4, 6, rho=0.5, seed=13)
        t5 = gmm_statistic_exact(params, order=5)
        result = gmm_learn_from_moments(t5, 6, order=5)
        perm, errors = match_columns(result.means, params.means)
        assert max(errors) < 1e-4

    def test_label_permutation_invariance(self):
        params = gmm_orthogonal_params(6, 3, norm=4.0, seed=14)
        samples = gmm_sample(params, 100_000, seed=15)
        r1 = gmm_learn(samples, 3, truth=params)
        shuffled = GmmParams(means=params.means[:, [2, 0, 1]])
        r2 = gmm_learn(samples, 3, truth=shuffled)
        assert np.allclose(
            sorted(r1.mean_errors), sorted(r2.mean_errors), atol=1e-12
        )

    def test_error_nonincreasing_in_sample_count(self):
        params = gmm_orthogonal_params(4, 2, norm=3.0, seed=16)
        avg = []
        for big_n in (10_000, 100_000, 1_000_000):
            errs = []
            for seed in (0, 1, 2):
                samples = gmm_sample(params, big_n, seed=seed)
                errs.append(gmm_learn(samples, 2, truth=params).max_mean_error)
            avg.append(np.mean(errs))
        assert avg[1] <= avg[0] * 1.1
        assert avg[2] <= avg[1] * 1.1

    @pytest.mark.parametrize("n, k, n_samples, seed", [(8, 3, 200_000, 1),
                                                      (16, 4, 100_000, 2)])
    def test_whiten_first_matches_dense_moment_route(self, n, k, n_samples, seed):
        params = gmm_orthogonal_params(n, k, norm=5.0, seed=seed)
        samples = gmm_sample(params, n_samples, seed=seed)
        dense = gmm_learn_from_moments(
            gmm_statistic_t3(samples), k, method="power",
            second_moment=gmm_second_moment(samples), seed=seed,
        )
        got = gmm_learn(samples, k, seed=seed)
        assert np.max(np.abs(got.means - dense.means)) <= 1e-12

    @pytest.mark.parametrize("method", ["power", "jennrich"])
    def test_sampled_learner_never_builds_the_dense_moment(self, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("dense third moment built")

        monkeypatch.setattr(moment_learners, "gmm_statistic_t3", refuse)
        monkeypatch.setattr(moment_learners, "whiten", refuse)
        params = gmm_orthogonal_params(6, 2, norm=4.0, seed=21)
        samples = gmm_sample(params, 20_000, seed=22)
        result = gmm_learn(samples, 2, method=method, truth=params)
        assert result.max_mean_error < 0.25

    def test_whitened_jennrich_within_gate_bound(self):
        # the seeding of acceptance gate 09; the dense n^3 route this
        # replaced reached 0.268 on these seeds
        errors = []
        for seed in range(10):
            params = gmm_orthogonal_params(8, 3, norm=5.0, seed=seed)
            samples = gmm_sample(params, 500_000, seed=seed)
            result = gmm_learn(samples, 3, method="jennrich", seed=seed, truth=params)
            errors.append(result.max_mean_error)
        assert max(errors) <= 0.25

    @pytest.mark.parametrize("k", [1, 3])
    def test_unknown_method_rejected_before_any_work(self, monkeypatch, k):
        def refuse(*args, **kwargs):
            raise AssertionError("moment work started")

        monkeypatch.setattr(moment_learners, "gmm_second_moment", refuse)
        monkeypatch.setattr(moment_learners, "gmm_statistic_t3", refuse)
        samples = gmm_sample(gmm_orthogonal_params(4, 3, seed=23), 1000, seed=24)
        with pytest.raises(PreconditionError, match="bogus"):
            gmm_learn(samples, k, method="bogus")

    def test_order3_jennrich_equals_direct_decomposition(self):
        params = gmm_orthogonal_params(6, 3, norm=4.0, seed=25)
        t3 = gmm_statistic_exact(params, order=3)
        direct, _ = jennrich_decompose(t3, JennrichConfig(rank=3, seed=26))
        got = gmm_learn_from_moments(t3, 3, seed=26).decomposition
        assert got.weights.tobytes() == direct.weights.tobytes()
        for a, b in zip(got.factors, direct.factors):
            assert a.tobytes() == b.tobytes()

    def test_power_method_is_default(self):
        params = gmm_orthogonal_params(6, 2, norm=4.0, seed=17)
        samples = gmm_sample(params, 50_000, seed=18)
        default = gmm_learn(samples, 2, truth=params)
        explicit = gmm_learn(samples, 2, method="power", truth=params)
        assert np.array_equal(default.means, explicit.means)

    def test_unknown_method_rejected(self):
        t3 = gmm_statistic_exact(gmm_orthogonal_params(4, 2, seed=19), order=3)
        with pytest.raises(PreconditionError):
            gmm_learn_from_moments(t3, 2, method="als")

    def test_even_order_rejected(self):
        with pytest.raises(PreconditionError):
            gmm_learn_from_moments(
                gmm_statistic_exact(gmm_orthogonal_params(3, 2, seed=20), order=3),
                2,
                order=4,
            )


class TestMatchColumns:
    def test_errors_equal_the_row_loop_cost(self):
        rng = np.random.default_rng(60)
        for k in (1, 3, 6):
            found = rng.standard_normal((5, k))
            order = rng.permutation(k)
            truth = found[:, order] + 1e-3 * rng.standard_normal((5, k))
            perm, errors = match_columns(found, truth)
            assert [order[j] for j in perm] == list(range(k))
            cost = np.zeros((k, k))
            for i in range(k):
                cost[i] = np.linalg.norm(truth - found[:, i : i + 1], axis=0)
            assert errors == [float(cost[i, j]) for i, j in enumerate(perm)]

    def test_chain_errors_follow_the_matched_states(self):
        truth = hmm_random_params(4, 3, seed=61)
        order = [2, 0, 1]  # found state i is true state order[i]
        stationary_bump = np.array([1e-3, 2e-3, 4e-3])
        transition = truth.transition[np.ix_(order, order)].copy()
        transition[0] += np.array([1e-4, 2e-4, 4e-4])
        result = moment_learners.HmmLearnResult(
            observation_means=truth.observation_means[:, order],
            stationary=truth.stationary[order] + stationary_bump,
            transition=transition,
        )
        moment_learners._match_hmm(result, truth)
        assert result.permutation == order
        assert result.observation_errors == [0.0, 0.0, 0.0]
        # true state j is found state order.index(j)
        found_of = [order.index(j) for j in range(3)]
        assert result.stationary_errors == pytest.approx(stationary_bump[found_of])
        assert result.transition_errors == pytest.approx(
            np.array([1e-4, 2e-4, 4e-4])[found_of]
        )


class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        # P = [[1-a, b], [a, 1-b]] has stationary (b, a)/(a+b)
        a, b = 0.3, 0.2
        p = np.array([[1 - a, b], [a, 1 - b]])
        w = stationary_distribution(p)
        assert np.allclose(w, [b / (a + b), a / (a + b)], atol=1e-12)

    def test_identity_not_unique(self):
        with pytest.raises(PreconditionError):
            stationary_distribution(np.eye(3))


class TestHmmParams:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            HmmParams(
                transition=np.array([[0.5, 0.5], [0.4, 0.5]]),  # bad column sums
                observation_means=np.eye(2),
                stationary=np.array([0.5, 0.5]),
            )
        with pytest.raises(PreconditionError):
            HmmParams(
                transition=np.array([[0.7, 0.3], [0.3, 0.7]]),
                observation_means=np.eye(2),
                stationary=np.array([0.9, 0.1]),  # not stationary for P
            )
        for noise in (-0.1, np.nan, np.inf):
            with pytest.raises(PreconditionError):
                HmmParams(transition=np.array([[0.7, 0.3], [0.3, 0.7]]),
                          observation_means=np.eye(2), stationary=np.array([0.5, 0.5]),
                          noise_scale=noise)

    def test_rejects_non_finite_transition(self):
        with pytest.raises(PreconditionError):
            HmmParams(
                transition=np.array([[np.nan, 0.3], [0.3, 0.7]]),
                observation_means=np.eye(2),
                stationary=np.array([0.5, 0.5]),
            )

    def test_reversed_transition_is_column_stochastic(self):
        params = hmm_random_params(4, 3, seed=21)
        rev = params.reversed_transition()
        assert np.allclose(rev.sum(axis=0), 1.0, atol=1e-10)
        assert np.all(rev >= -1e-12)
        # detailed balance of the reversal: w_i P'_ji = w_j P_ij
        w = params.stationary
        assert np.allclose(rev * w[None, :], (params.transition * w[None, :]).T)


class TestHmmSample:
    def test_identity_chain_freezes_state(self):
        k, n = 3, 4
        params = HmmParams(
            transition=np.eye(k),
            observation_means=np.arange(12, dtype=float).reshape(n, k),
            stationary=np.full(k, 1.0 / k),
        )
        windows = hmm_sample(params, 500, window=5, seed=22)
        assert windows.shape == (500, 5, n)
        # noiseless identity chain: every observation in a window equal
        assert np.all(windows == windows[:, :1, :])

    def test_single_state_emits_its_mean(self):
        params = HmmParams(
            transition=np.ones((1, 1)),
            observation_means=np.array([[2.0], [3.0]]),
            stationary=np.ones(1),
        )
        windows = hmm_sample(params, 100, window=3, seed=23)
        assert np.all(windows == np.array([2.0, 3.0]))

    def test_occupancy_matches_stationary(self):
        params = hmm_random_params(3, 3, seed=24)  # noiseless, distinct means
        windows = hmm_sample(params, 100_000, window=3, seed=25)
        center = windows[:, 1, :]
        dists = np.linalg.norm(
            center[:, :, None] - params.observation_means[None, :, :], axis=1
        )
        states = np.argmin(dists, axis=1)
        freq = np.bincount(states, minlength=3) / 100_000
        bands = 3.0 * np.sqrt(params.stationary * (1 - params.stationary) / 100_000)
        assert np.all(np.abs(freq - params.stationary) <= bands)

    def test_window_validation(self):
        params = hmm_random_params(2, 2, seed=26)
        with pytest.raises(PreconditionError):
            hmm_sample(params, 10, window=4)
        with pytest.raises(PreconditionError):
            hmm_sample(params, 10, window=1)


class TestHmmMoments:
    def test_single_state_tensor_is_mean_cubed(self):
        params = HmmParams(
            transition=np.ones((1, 1)),
            observation_means=np.array([[1.0], [-2.0]]),
            stationary=np.ones(1),
        )
        windows = hmm_sample(params, 50, window=3, seed=27)
        est = hmm_moment_tensor(windows, context=1)
        mu = params.observation_means[:, 0]
        assert np.allclose(
            est.data, np.einsum("a,b,c->abc", mu, mu, mu), atol=1e-12
        )

    def test_exact_tensor_matches_hidden_path_enumeration(self):
        # independent oracle: sum the k^3 hidden state paths directly
        params = hmm_random_params(4, 3, seed=28, noise_scale=0.2)
        got = hmm_exact_moments(params, context=1).tensor
        o, p, w = params.observation_means, params.transition, params.stationary
        k = params.k
        expected = np.zeros((4, 4, 4))
        for a in range(k):
            for b in range(k):
                for c in range(k):
                    joint = w[a] * p[b, a] * p[c, b]
                    expected += joint * np.einsum(
                        "i,j,l->ijl", o[:, a], o[:, b], o[:, c]
                    )
        assert np.allclose(got.data, expected, atol=1e-12)

    def test_empirical_tensor_near_exact(self):
        params = hmm_random_params(3, 2, seed=29, noise_scale=0.1)
        windows = hmm_sample(params, 100_000, window=3, seed=30)
        emp = hmm_moment_tensor(windows, context=1)
        exact = hmm_exact_moments(params, context=1)
        diff = np.linalg.norm(emp.data - exact.tensor.data)
        assert diff < 0.25

    @pytest.mark.parametrize("context", [1, 2])
    def test_auxiliary_moments_from_the_same_windows(self, context):
        params = hmm_random_params(3, 2, seed=35, noise_scale=0.1)
        windows = hmm_sample(params, 5_000, window=2 * context + 1, seed=36)
        got = hmm_empirical_moments(windows, context)
        n_rows = windows.shape[0]
        center = windows[:, context, :]
        right = windows[:, context + 1, :]
        if context == 2:
            right = np.einsum("si,sj->sij", right, windows[:, 4, :]).reshape(n_rows, -1)
        assert_rel_close(got.center_mean, center.mean(axis=0), 1e-13)
        assert_rel_close(got.center_future, center.T @ right / n_rows, 1e-13)
        assert_rel_close(got.center_second, center.T @ center / n_rows, 1e-13)
        tensor = hmm_moment_tensor(windows, context).data
        assert np.array_equal(got.tensor.data, tensor)

    @pytest.mark.parametrize("context", [2, 3])
    def test_window_blocks_match_per_sample_kron(self, context):
        params = hmm_random_params(3, 2, seed=37, noise_scale=0.1)
        windows = hmm_sample(params, 200, window=2 * context + 1, seed=38)
        left, center, right = moment_learners._window_blocks(windows, context)

        def fused(times):
            # the reference: one np.kron chain per sample, nearest time major
            return np.array([functools.reduce(np.kron, [w[t] for t in times]) for w in windows])

        assert np.array_equal(left, fused(range(context - 1, -1, -1)))
        assert np.array_equal(center, windows[:, context])
        assert np.array_equal(right, fused(range(context + 1, 2 * context + 1)))

    def test_window_length_must_match_context(self):
        params = hmm_random_params(2, 2, seed=31)
        windows = hmm_sample(params, 10, window=3, seed=32)
        with pytest.raises(PreconditionError):
            hmm_moment_tensor(windows, context=2)

    def test_context2_shapes(self):
        params = hmm_random_params(3, 2, seed=33)
        windows = hmm_sample(params, 100, window=5, seed=34)
        est = hmm_moment_tensor(windows, context=2)
        assert est.shape == (9, 3, 9)


class TestHmmLearn:
    def test_single_state(self):
        params = HmmParams(
            transition=np.ones((1, 1)),
            observation_means=np.array([[2.0], [-1.0]]),
            stationary=np.ones(1),
        )
        windows = hmm_sample(params, 200, window=3, seed=35)
        result = hmm_learn(windows, 1, truth=params)
        assert np.allclose(result.observation_means, params.observation_means,
                           atol=1e-10)
        assert result.transition.tolist() == [[1.0]]
        assert result.stationary.tolist() == [1.0]

    def test_exact_moments_round_trip(self):
        params = hmm_random_params(6, 3, seed=36)
        moments = hmm_exact_moments(params, context=1)
        result = hmm_learn_from_moments(moments, 3, context=1, truth=params)
        assert max(result.observation_errors) < 1e-6
        assert max(result.transition_errors) < 1e-6
        assert max(result.stationary_errors) < 1e-6
        assert result.consistency["cross_moment_offdiag"] < 1e-8

    def test_sampled_windows_recover_parameters(self):
        params = hmm_random_params(6, 3, seed=37, noise_scale=0.1)
        windows = hmm_sample(params, 500_000, window=3, seed=38)
        result = hmm_learn(windows, 3, truth=params)
        assert max(result.observation_errors) < 0.1
        assert max(result.transition_errors) < 0.1

    def test_context2_recovers_means_only(self):
        params = hmm_random_params(3, 3, seed=39, noise_scale=0.3)
        moments = hmm_exact_moments(params, context=2)
        result = hmm_learn_from_moments(
            moments, 3, context=2, noise_scale=0.3, truth=params
        )
        assert result.transition is None
        assert max(result.observation_errors) < 1e-6
        assert max(result.stationary_errors) < 1e-6

    @pytest.mark.parametrize("context", [1, 2])
    @pytest.mark.parametrize("n", [4, 6])
    def test_polish_matches_the_order3_loop_bitwise(self, context, n):
        for seed in range(3):
            params = hmm_random_params(n, 3, seed=50 + seed, noise_scale=0.2)
            windows = hmm_sample(params, 20_000, window=2 * context + 1, seed=seed)
            t = hmm_empirical_moments(windows, context).tensor
            d3, _ = jennrich_decompose(t, JennrichConfig(rank=3, seed=seed))
            ref = _als_polish(t, d3)
            start = [d3.factors[0] * d3.weights[None, :], *d3.factors[1:]]
            got = CpDecomposition(_als_refine(t.data, start), np.ones(3))
            for f, g in zip(got.factors, ref.factors):
                assert np.array_equal(f, g)
            assert np.array_equal(got.weights, ref.weights)

    def test_fit_residual_at_every_context(self):
        # exact moments are fitted exactly, whatever the context
        params = hmm_random_params(3, 3, seed=39, noise_scale=0.3)
        one = hmm_learn_from_moments(hmm_exact_moments(params, context=1), 3)
        two = hmm_learn_from_moments(
            hmm_exact_moments(params, context=2), 3, context=2, noise_scale=0.3
        )
        for result in (one, two):
            assert set(result.consistency) == {"cross_moment_offdiag", "fit_residual"}
            assert 0.0 <= result.consistency["fit_residual"] <= 1e-10

    def test_label_permutation_invariance(self):
        params = hmm_random_params(4, 3, seed=41)
        moments = hmm_exact_moments(params, context=1)
        r1 = hmm_learn_from_moments(moments, 3, context=1, truth=params)
        relabel = [2, 0, 1]
        shuffled = HmmParams(
            transition=params.transition[np.ix_(relabel, relabel)],
            observation_means=params.observation_means[:, relabel],
            stationary=params.stationary[relabel],
        )
        r2 = hmm_learn_from_moments(moments, 3, context=1, truth=shuffled)
        assert np.allclose(
            sorted(r1.observation_errors), sorted(r2.observation_errors), atol=1e-12
        )
        assert np.allclose(
            sorted(r1.transition_errors), sorted(r2.transition_errors), atol=1e-12
        )
