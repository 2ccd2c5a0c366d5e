"""Simultaneous diagonalization: recovery and term matching."""

import numpy as np
import pytest

from tensordec import (
    CpDecomposition,
    DegeneracyError,
    DenseTensor,
    JennrichConfig,
    PreconditionError,
    frobenius_norm,
    jennrich_decompose,
    match_terms,
    outer_product,
    random_decomposition,
    synthesize,
)


def _reconstruction_error(found, t):
    return frobenius_norm(DenseTensor(synthesize(found).data - t.data)) / frobenius_norm(t)


class TestJennrichDecompose:
    def test_exact_rank_one(self):
        e = np.eye(4)
        t = DenseTensor(2.0 * outer_product([e[:, 0], e[:, 1], e[:, 2]]).data)
        found, report = jennrich_decompose(t)
        assert found.rank == 1
        truth = CpDecomposition(
            [e[:, [0]], e[:, [1]], e[:, [2]]], [2.0]
        )
        matched = match_terms(found, truth)
        assert matched.max_error < 1e-8
        assert abs(abs(found.weights[0]) - 2.0) < 1e-8

    def test_random_rank_five_round_trip(self):
        truth = random_decomposition((8, 8, 8), 5, seed=0, kappa_max=5.0)
        t = synthesize(truth)
        found, report = jennrich_decompose(t)
        assert found.rank == 5
        assert match_terms(found, truth).max_error < 1e-6
        assert report.retries == 0

    def test_noise_robustness_small_perturbation(self):
        truth = random_decomposition((8, 8, 8), 5, seed=1, kappa_max=5.0)
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
            outer_product([u[:, 0], u[:, 0], u[:, 3]]).data
            + outer_product([u[:, 1], u[:, 1], u[:, 3]]).data
        )
        with pytest.raises(DegeneracyError) as exc_info:
            jennrich_decompose(DenseTensor(t), JennrichConfig(rank=2))
        assert exc_info.value.diagnostics

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
        assert report.max_pair_residual <= 1e-3
        assert report.max_imag_part is not None
        assert len(report.condition_numbers) == 3
        d = report.to_dict()
        assert "eigenvalue_min_gap" in d
        assert "unflatten_residuals" not in d  # None fields dropped


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
