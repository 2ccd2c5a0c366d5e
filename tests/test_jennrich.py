"""Simultaneous diagonalization: recovery and term matching."""

import itertools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from tensordec import (
    CpDecomposition,
    DegeneracyError,
    DenseTensor,
    JennrichConfig,
    PreconditionError,
    frobenius_norm,
    jennrich_decompose,
    match_columns,
    match_terms,
    random_decomposition,
    synthesize,
)
from tensordec.matrix_ops import pseudoinverse
from tensordec.tensor_core import _cp_dense, slice_combination
from tensordec import jennrich
from tensordec.seeding import TAG_JENNRICH, derive_rng


def _reconstruction_error(found, t):
    return frobenius_norm(DenseTensor(synthesize(found).data - t.data)) / frobenius_norm(t)


class TestJennrichDecompose:
    def test_exact_rank_one(self):
        e = np.eye(4)
        t = DenseTensor(2.0 * np.einsum("i,j,k->ijk", e[:, 0], e[:, 1], e[:, 2]))
        found, report = jennrich_decompose(t)
        assert found.rank == 1
        truth = CpDecomposition(
            [e[:, [0]], e[:, [1]], e[:, [2]]], [2.0]
        )
        matched = match_terms(found, truth)
        assert matched.max_error < 1e-8
        assert abs(abs(found.weights[0]) - 2.0) < 1e-8

    def test_random_rank_five_round_trip(self):
        truth = random_decomposition((8, 8, 8), 5, seed=0)
        t = synthesize(truth)
        found, report = jennrich_decompose(t)
        assert found.rank == 5
        assert match_terms(found, truth).max_error < 1e-6
        assert report.retries == 0

    def test_noise_robustness_small_perturbation(self):
        truth = random_decomposition((8, 8, 8), 5, seed=1)
        t = synthesize(truth)
        scale = 1e-9 * frobenius_norm(t)
        rng = np.random.default_rng(123)
        noisy = DenseTensor(t.data + rng.uniform(-scale, scale, t.shape))
        found, _ = jennrich_decompose(noisy, JennrichConfig(rank=5))
        assert match_terms(found, truth).max_error < 1e-4

    def test_auto_rank_detection(self):
        for k in (1, 3, 6):
            truth = random_decomposition((8, 8, 8), k, seed=10 + k)
            found, _ = jennrich_decompose(synthesize(truth))
            assert found.rank == k

    @pytest.mark.parametrize("k", range(1, 9))
    def test_auto_rank_equals_explicit_rank_on_exact_tensors(self, k):
        t = synthesize(random_decomposition((8, 8, 8), k, seed=40 + k))
        auto, auto_report = jennrich_decompose(t, JennrichConfig(seed=k))
        given, given_report = jennrich_decompose(t, JennrichConfig(rank=k, seed=k))
        assert auto.rank == k
        assert auto.weights.tobytes() == given.weights.tobytes()
        for f, g in zip(auto.factors, given.factors):
            assert f.tobytes() == g.tobytes()
        assert auto_report.to_dict() == given_report.to_dict()

    def test_auto_rank_keeps_a_term_orthogonal_to_the_draw(self, monkeypatch):
        # Term 0's mode-3 column is orthogonal to the first draw's a, so its
        # ratio <w_0, a> / <w_0, b> is zero. M_b still has rank 6: auto rank
        # must keep six terms and reject the draw, not drop the term.
        truth = random_decomposition((8, 8, 8), 6, seed=21)
        a = derive_rng(4, TAG_JENNRICH, 0).normal(0.0, 1.0 / np.sqrt(8), size=8)
        factors = [f.copy() for f in truth.factors]
        factors[2][:, 0] -= (factors[2][:, 0] @ a) / (a @ a) * a
        truth = CpDecomposition(factors, truth.weights)
        t = synthesize(truth)
        seen = _eig_spy(monkeypatch)
        found, report = jennrich_decompose(t, JennrichConfig(seed=4))
        assert found.rank == 6
        assert report.retries == 1
        _assert_one_eig_per_draw(seen, report, 6)
        assert match_terms(found, truth).max_error <= 1e-10 * frobenius_norm(t)

    def test_explicit_rank_override(self):
        truth = random_decomposition((6, 6, 6), 4, seed=3)
        found, _ = jennrich_decompose(synthesize(truth), JennrichConfig(rank=4))
        assert found.rank == 4
        assert match_terms(found, truth).max_error < 1e-7

    def test_zero_tensor_gives_empty_decomposition(self):
        found, report = jennrich_decompose(DenseTensor(np.zeros((3, 3, 3))))
        assert found.rank == 0
        assert np.array_equal(synthesize(found).data, np.zeros((3, 3, 3)))

    def test_rank_exceeding_side_modes_rejected(self):
        t = DenseTensor(np.zeros((3, 3, 3)))
        with pytest.raises(PreconditionError):
            jennrich_decompose(t, JennrichConfig(rank=4))

    def test_non_order3_rejected(self):
        with pytest.raises(PreconditionError):
            jennrich_decompose(DenseTensor(np.zeros((2, 2))))

    def test_parallel_w_columns_degenerate(self):
        # Two terms sharing the same third-mode direction: the eigenvalue
        # ratios coincide for every draw, so every retry fails.
        u = np.eye(4)
        t = (
            np.einsum("i,j,k->ijk", u[:, 0], u[:, 0], u[:, 3])
            + np.einsum("i,j,k->ijk", u[:, 1], u[:, 1], u[:, 3])
        )
        with pytest.raises(DegeneracyError) as exc_info:
            jennrich_decompose(DenseTensor(t), JennrichConfig(rank=2))
        assert exc_info.value.diagnostics

    def test_rank_deficient_slices_reported_by_rank(self):
        # M_b of a rank-3 tensor has rank 3 at every draw, below the
        # requested 5: no eigenvalue is computed, and the diagnostics say so
        t = synthesize(random_decomposition((6, 6, 6), 3, seed=1))
        with pytest.raises(DegeneracyError,
                           match="rank 3, below the requested rank 5") as exc_info:
            jennrich_decompose(t, JennrichConfig(rank=5))
        assert exc_info.value.diagnostics == {
            "attempts": 6, "stage": "rank", "slice_rank": 3, "requested_rank": 5,
        }

    def test_reconstruction_residual_small(self):
        truth = random_decomposition((7, 9, 5), 4, seed=6)
        t = synthesize(truth)
        found, _ = jennrich_decompose(t)
        assert _reconstruction_error(found, t) < 1e-9

    def test_seed_changes_draw_not_answer(self):
        truth = random_decomposition((8, 8, 8), 5, seed=7)
        t = synthesize(truth)
        a, _ = jennrich_decompose(t, JennrichConfig(seed=1))
        b, _ = jennrich_decompose(t, JennrichConfig(seed=2))
        assert match_terms(a, b).max_error < 1e-8

    def test_report_fields_populated(self):
        truth = random_decomposition((6, 6, 6), 3, seed=8)
        _, report = jennrich_decompose(synthesize(truth))
        assert report.eigenvalue_min_gap > 0
        assert report.eigenvalue_min_magnitude > 0
        assert report.max_split_residual <= 1e-10
        assert report.max_imag_part is not None
        assert len(report.condition_numbers) == 3
        d = report.to_dict()
        assert "eigenvalue_min_gap" in d
        assert "unflatten_residuals" not in d  # None fields dropped

    def test_wide_flattening_round_trip(self):
        # p < k: each split R_i is 16 x 4, so its rank-one part is cut from
        # a matrix with fewer columns than there are terms.
        rng = np.random.default_rng(30)
        truth = CpDecomposition(
            [rng.standard_normal((16, 8)), rng.standard_normal((16, 8)),
             rng.standard_normal((4, 8))],
            np.ones(8),
        )
        found, report = jennrich_decompose(synthesize(truth), JennrichConfig(rank=8))
        assert found.rank == 8
        assert match_terms(found, truth).max_error < 1e-8
        assert report.max_split_residual <= 1e-10


def _eig_spy(monkeypatch):
    """Record every matrix jennrich hands to eig_nonsymmetric."""
    seen = []

    def spy(m):
        seen.append(np.array(m))
        return jennrich_eig(m)

    jennrich_eig = jennrich.eig_nonsymmetric
    monkeypatch.setattr(jennrich, "eig_nonsymmetric", spy)
    return seen


def _by_magnitude(values):
    return values[np.argsort(-np.abs(values))]


def _assert_one_eig_per_draw(seen, report, k):
    """One eigendecomposition per draw, of the k x k core, at any rank."""
    assert [c.shape for c in seen] == [(k, k)] * (report.retries + 1)


class TestCore:
    @pytest.mark.parametrize(
        "shape, k, seed", [((8, 8, 8), 8, 31), ((7, 9, 5), 4, 32)]
    )
    def test_core_eigenvalues_are_nonzero_eigenvalues_of_pencil(
        self, monkeypatch, shape, k, seed
    ):
        t = synthesize(random_decomposition(shape, k, seed=seed))
        seen = _eig_spy(monkeypatch)
        _, report = jennrich_decompose(t, JennrichConfig(seed=seed))
        assert report.retries == 0
        _assert_one_eig_per_draw(seen, report, k)
        rng = derive_rng(seed, TAG_JENNRICH, 0)
        a = rng.normal(0.0, 1.0 / np.sqrt(shape[2]), size=shape[2])
        b = rng.normal(0.0, 1.0 / np.sqrt(shape[2]), size=shape[2])
        pencil = slice_combination(t, a) @ pseudoinverse(slice_combination(t, b))
        full = _by_magnitude(np.linalg.eigvals(pencil))
        core = _by_magnitude(np.linalg.eigvals(seen[0]))
        scale = np.max(np.abs(full))
        assert np.all(np.abs(full[k:]) <= 1e-10 * scale)
        assert np.allclose(core, full[:k], rtol=0.0, atol=1e-10 * scale)

    def test_given_rank_makes_one_eig_per_draw(self, monkeypatch):
        t = synthesize(random_decomposition((8, 8, 8), 5, seed=33))
        seen = _eig_spy(monkeypatch)
        _, report = jennrich_decompose(t, JennrichConfig(rank=5))
        _assert_one_eig_per_draw(seen, report, 5)

    def test_import_skips_scipy_optimize(self):
        # numpy is the only runtime dependency: no scipy module at all
        src = os.path.dirname(os.path.dirname(os.path.abspath(jennrich.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        code = (
            "import sys, tensordec.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert proc.stdout.strip() == "[]"


def _phase_aligned_real_loop(columns):
    """Column-by-column reference for jennrich._phase_aligned_real."""
    out = np.empty(columns.shape, dtype=np.float64)
    worst = 0.0
    for i in range(columns.shape[1]):
        col = columns[:, i]
        j = int(np.argmax(np.abs(col)))
        pivot = col[j]
        if pivot != 0:
            col = col * (np.conj(pivot) / abs(pivot))
        worst = max(worst, float(np.max(np.abs(col.imag))))
        out[:, i] = col.real
    return out, worst


class TestSplit:
    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    @pytest.mark.parametrize("shape, k, seed", [((8, 8, 8), 8, 34), ((9, 7, 5), 4, 35)])
    def test_factors_and_weights_equal_a_stacked_svd_reference(
        self, monkeypatch, shape, k, seed, noise
    ):
        # step 4 written out: the top singular triple of each row of
        # pinv(U) T_(1) from one stacked SVD, for the U the draw found
        t = synthesize(random_decomposition(shape, k, seed=seed))
        rng = np.random.default_rng(seed)
        t = DenseTensor(t.data + noise * rng.uniform(-1.0, 1.0, shape))
        seen = []

        def spy(m):
            seen.append(np.array(m))
            return pseudoinverse(m)

        monkeypatch.setattr(jennrich, "pseudoinverse", spy)
        found, report = jennrich_decompose(t, JennrichConfig(rank=k, seed=seed))
        (u_mat,) = seen
        n, m, p = shape
        rows = (pseudoinverse(u_mat) @ t.data.reshape(n, m * p)).reshape(k, m, p)
        v, sigma, w = np.linalg.svd(rows, full_matrices=False)
        ref = CpDecomposition([u_mat, v[:, :, 0].T, w[:, 0, :].T], sigma[:, 0])
        for f, g in zip(found.factors, ref.factors):
            assert f.tobytes() == g.tobytes()
        assert found.weights.tobytes() == ref.weights.tobytes()
        tails = np.linalg.norm(sigma[:, 1:], axis=1) / sigma[:, 0]
        assert report.max_split_residual == pytest.approx(np.max(tails), rel=1e-15)


class TestPhaseAlignedReal:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_column_loop(self, seed):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
        cols[:, 3] = cols[:, 3].real * np.exp(0.7j)  # a real direction under a phase
        got, worst = jennrich._phase_aligned_real(cols)
        want, want_worst = _phase_aligned_real_loop(cols)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
        assert worst == pytest.approx(want_worst, rel=0.0, abs=1e-14)


class TestMatchTerms:
    def test_permuted_identical_terms(self):
        truth = random_decomposition((5, 5, 5), 3, seed=20)
        perm = [2, 0, 1]
        shuffled = CpDecomposition(
            [f[:, perm] for f in truth.factors], truth.weights[perm]
        )
        report = match_terms(shuffled, truth)
        assert report.max_error < 1e-12
        assert report.permutation == perm

    def test_sign_flip_is_invisible(self):
        # (-u, v, w, -weight) is the same rank-one term; canonical form
        # erases the difference entirely.
        u = np.array([[0.6], [0.8]])
        v = np.array([[1.0], [0.0]])
        w = np.array([[0.0], [1.0]])
        d1 = CpDecomposition([u, v, w], [2.0])
        d2 = CpDecomposition([-u, v, w], [-2.0])
        assert match_terms(d1, d2).max_error == pytest.approx(0.0, abs=1e-15)

    def test_injected_perturbation_measured(self):
        rng = np.random.default_rng(21)
        truth = random_decomposition((5, 5, 5), 3, seed=22)
        eps = 1e-3
        bumped_factors = [np.array(f) for f in truth.factors]
        bumped_factors[0] += rng.uniform(-eps, eps, bumped_factors[0].shape)
        bumped = CpDecomposition(bumped_factors, truth.weights)
        report = match_terms(bumped, truth)
        # each term differs by roughly eps * sqrt(entry count) * weight
        bound = 3 * eps * np.sqrt(5**3) * np.abs(truth.weights).max()
        assert 0 < report.max_error < bound

    def test_rank_mismatch_rejected(self):
        a = random_decomposition((4, 4, 4), 2, seed=23)
        b = random_decomposition((4, 4, 4), 3, seed=24)
        with pytest.raises(PreconditionError):
            match_terms(a, b)

    def test_minimizes_maximum_not_sum(self):
        # Two nearly-identical candidate assignments: the bottleneck
        # objective must pick the one with the smaller worst-case error
        # even when its total cost is larger.
        e = np.eye(3)
        truth = CpDecomposition([e[:, :2]] * 3, np.array([1.0, 1.0]))
        # found term 0 sits between both truth terms; term 1 is exact.
        mix = (e[:, 0] + e[:, 1]) / np.sqrt(2)
        found = CpDecomposition(
            [np.column_stack([mix, e[:, 1]])] * 3, np.array([1.0, 1.0])
        )
        report = match_terms(found, truth)
        # the bottleneck assignment pairs the mixed term with truth 0
        assert report.permutation == [0, 1]

    @staticmethod
    def _peak_in_terms(n, k):
        """tracemalloc peak of matching two n^3 rank-k decompositions, in
        dense n^3 terms."""
        truth = random_decomposition((n, n, n), k, seed=25)
        found = random_decomposition((n, n, n), k, seed=26)
        match_terms(found, truth)  # one-time lazy imports stay out of the count
        tracemalloc.start()
        try:
            match_terms(found, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (8 * n**3)

    def test_holds_one_matched_pair_and_its_difference(self):
        # one found term, one true term and their difference, whatever k is
        assert self._peak_in_terms(32, 16) < 3.05

    def test_stores_each_term_without_a_copy(self):
        # at 64^3 the other temporaries are small, so a second copy of a
        # term would show above the three terms held
        assert self._peak_in_terms(64, 4) < 3.05

    def test_columns_pair_like_order_one_terms(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((6, 5))
        b = a[:, rng.permutation(5)] + 0.3 * rng.standard_normal((6, 5))
        perm, errors = match_columns(a, b)
        report = match_terms(CpDecomposition([a], np.ones(5)),
                             CpDecomposition([b], np.ones(5)))
        assert perm == report.permutation
        assert np.allclose(errors, report.per_term_errors, rtol=1e-15, atol=0.0)

    def test_mismatch_messages(self):
        a = random_decomposition((4, 4, 4), 2, seed=23)
        with pytest.raises(PreconditionError, match=r"^rank mismatch: 2 vs 3$"):
            match_terms(a, random_decomposition((4, 4, 4), 3, seed=24))
        with pytest.raises(PreconditionError,
                           match=r"^shape mismatch: \(4, 4, 4\) vs \(4, 4, 5\)$"):
            match_terms(a, random_decomposition((4, 4, 5), 2, seed=24))
        with pytest.raises(PreconditionError,
                           match=r"^shape mismatch: \(4, 2\) vs \(4, 3\)$"):
            match_columns(np.ones((4, 2)), np.ones((4, 3)))


def _dense_terms(d):
    return [_cp_dense([f[:, i : i + 1] for f in d.factors], d.weights[i : i + 1]).data
            for i in range(d.rank)]


def _dense_distances(found, truth):
    return np.array([[np.linalg.norm(a - b) for b in _dense_terms(truth)]
                     for a in _dense_terms(found)])


def _signed_decomposition(rng, shape, k):
    """Gaussian factors; weights alternate in sign."""
    return CpDecomposition([rng.standard_normal((n, k)) for n in shape],
                           (-1.0) ** np.arange(k) * rng.uniform(0.5, 3.0, k))


class TestTermDistances:
    @pytest.mark.parametrize("shape", [(6, 5, 4), (4, 3, 5, 2, 3)])
    def test_matches_dense_distances(self, shape):
        rng = np.random.default_rng(sum(shape))
        truth = _signed_decomposition(rng, shape, 5)
        other = _signed_decomposition(rng, shape, 5)
        # found terms 0-2 sit about 1e-5 from true terms 0-2, where the Gram
        # form cancels most; terms 3-4 are unrelated
        found = CpDecomposition(
            [np.column_stack([f[:, :3] + 1e-5 * rng.standard_normal((f.shape[0], 3)), g[:, 3:]])
             for f, g in zip(truth.factors, other.factors)],
            np.concatenate([truth.weights[:3], other.weights[3:]]))
        scale = max(np.abs(found.weights).max(), np.abs(truth.weights).max())
        assert np.abs(jennrich._term_distances(found, truth)
                      - _dense_distances(found, truth)).max() < 1e-7 * scale

    def test_term_with_a_zero_column_is_the_zero_tensor(self):
        rng = np.random.default_rng(44)
        truth = _signed_decomposition(rng, (4, 3, 5), 3)
        factors = [rng.standard_normal((n, 3)) for n in (4, 3, 5)]
        factors[1][:, 2] = 0.0
        found = CpDecomposition(factors, [1.0, -2.0, 3.0])
        assert np.allclose(jennrich._term_distances(found, truth),
                           _dense_distances(found, truth), rtol=1e-12, atol=1e-12)


def _found_decomposition(shape, k, noise, seed):
    truth = random_decomposition(shape, k, seed=seed)
    data = synthesize(truth).data
    rng = np.random.default_rng(seed)
    data = data + noise * np.linalg.norm(data) / np.sqrt(data.size) * rng.standard_normal(shape)
    found, _ = jennrich_decompose(DenseTensor(data), JennrichConfig(rank=k, seed=seed))
    return found, truth


_MATCH_CASES = [(shape, k, noise, seed)
                for noise in (0.0, 1e-6, 1e-3)
                for shape, k, seed in [((6, 6, 6), 6, 47), ((7, 6, 5), 5, 48),
                                       ((5, 4, 6), 4, 49)]]


class TestMatchTermsAgainstBruteForce:
    @staticmethod
    def _check(found, truth):
        k = truth.rank
        distances = _dense_distances(found, truth)
        perms = np.array(list(itertools.permutations(range(k))))
        worst = distances[np.arange(k), perms].max(axis=1)
        best = perms[worst == worst.min()]
        assert len(best) == 1
        report = match_terms(found, truth)
        assert report.permutation == best[0].tolist()
        # the reported errors are the dense distances of the matched pairs
        want = [float(distances[i, j]) for i, j in enumerate(report.permutation)]
        assert np.array(report.per_term_errors).tobytes() == np.array(want).tobytes()
        assert report.max_error == max(want)
        return report

    @pytest.mark.parametrize("shape,k,noise,seed", _MATCH_CASES)
    def test_found_decompositions(self, shape, k, noise, seed):
        self._check(*_found_decomposition(shape, k, noise, seed))

    def test_two_true_terms_one_millionth_apart(self):
        rng = np.random.default_rng(45)
        factors = [np.array(f) for f in random_decomposition((7, 6, 5), 5, seed=46).factors]
        for f in factors:
            f[:, 1] = f[:, 0]
        factors[0][:, 1] += 1e-6 * rng.standard_normal(7)
        truth = CpDecomposition(factors, [1.5, 1.5, 0.8, 1.2, 2.0])
        assert 1e-7 < _dense_distances(truth, truth)[0, 1] < 1e-5
        # found term i is true term perm[i], each factor entry moved by up to
        # 1e-9; under a cost that could not tell true terms 0 and 1 apart,
        # the tie rule would give true term 0 to found term 2 and swap the pair
        perm = [3, 0, 1, 4, 2]
        found = CpDecomposition(
            [f[:, perm] + rng.uniform(-1e-9, 1e-9, f.shape) for f in truth.factors],
            truth.weights[perm])
        assert self._check(found, truth).permutation == perm


def _scipy_bottleneck(cost):
    """Reference: the same binary search, with SciPy's bipartite matching."""
    levels = np.unique(cost)
    lo, hi = 0, levels.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        match = maximum_bipartite_matching(
            csr_matrix(cost <= levels[mid]), perm_type="column"
        )
        if np.all(match >= 0):
            best, hi = match, mid - 1
        else:
            lo = mid + 1
    return [int(j) for j in best], float(max(cost[i, j] for i, j in enumerate(best)))


def _only_perfect_matching(allowed, perm):
    """True when ``perm`` is the one perfect matching inside ``allowed``:
    dropping any of its pairs must leave no perfect matching."""
    for i, j in enumerate(perm):
        rest = allowed.copy()
        rest[i, j] = False
        match = maximum_bipartite_matching(csr_matrix(rest), perm_type="column")
        if np.all(match >= 0):
            return False
    return True


class TestBottleneckAssignment:
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 32, 64])
    def test_matches_scipy_reference(self, k):
        rng = np.random.default_rng(100 + k)
        for trial in range(20):
            cost = rng.random((k, k))
            if trial % 2:
                cost = np.round(cost * 4) / 4  # ties
            perm, errors, bottleneck = jennrich._bottleneck_assignment(cost)
            ref_perm, ref_bottleneck = _scipy_bottleneck(cost)
            assert bottleneck == ref_bottleneck
            assert sorted(perm) == list(range(k))
            assert errors == [float(cost[i, j]) for i, j in enumerate(perm)]
            assert max(errors) == bottleneck
            if _only_perfect_matching(cost <= bottleneck, perm):
                assert perm == ref_perm
        # a planted matching below every other pair is the unique optimum
        planted = rng.permutation(k).tolist()
        cost = 1.0 + rng.random((k, k))
        cost[np.arange(k), planted] = rng.random(k)
        assert jennrich._bottleneck_assignment(cost)[0] == planted
        assert _scipy_bottleneck(cost)[0] == planted

    def test_tie_rule_tries_cheapest_column_first(self):
        # Row 2 forces the bottleneck to 0.5; below it both ways of pairing
        # rows 0 and 1 are optimal, and each row's cheapest column decides.
        cross = np.array([[0.3, 0.1, 9.0], [0.1, 0.3, 9.0], [9.0, 9.0, 0.5]])
        assert jennrich._bottleneck_assignment(cross)[0] == [1, 0, 2]
        straight = np.array([[0.1, 0.3, 9.0], [0.3, 0.1, 9.0], [9.0, 9.0, 0.5]])
        assert jennrich._bottleneck_assignment(straight)[0] == [0, 1, 2]

    def test_tie_rule_takes_lower_index_among_equal_costs(self):
        # Every matching is optimal. Row 0 takes column 0; row 1 takes column
        # 0 too by displacing row 0 to column 1, the next column it tries.
        assert jennrich._bottleneck_assignment(np.zeros((2, 2)))[0] == [1, 0]
        assert jennrich._bottleneck_assignment(np.zeros((4, 4)))[0] == [3, 2, 1, 0]

    def test_long_augmenting_path_needs_no_recursion(self):
        # Row i prefers column i, then i + 1; the last row can only take
        # column 0, so its augmenting path runs through every row.
        k = 1200
        cost = np.full((k, k), 2.0)
        rows = np.arange(k - 1)
        cost[rows, rows] = 0.0
        cost[rows, rows + 1] = 1.0
        cost[k - 1, 0] = 1.0
        perm, _, bottleneck = jennrich._bottleneck_assignment(cost)
        assert bottleneck == 1.0
        assert perm == list(range(1, k)) + [0]
