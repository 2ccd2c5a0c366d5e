"""Khatri-Rao flattening: plans, rank-one unflattening, overcomplete recovery."""

import functools
import math

import numpy as np
import pytest

from tensordec import (
    DenseTensor,
    FlatteningPlan,
    JennrichConfig,
    PreconditionError,
    jennrich_decompose,
    match_terms,
    overcomplete_decompose,
    smoothed_decomposition,
    synthesize,
)
from tensordec import overcomplete, tensor_core
from tensordec.overcomplete import default_plan, unflatten_rank_one
from tensordec.tensor_core import flatten_to_order3


def _outer(vectors):
    """The rank-one array ``v1 (x) v2 (x) ...``."""
    return functools.reduce(np.multiply.outer, vectors)


class TestFlatteningPlan:
    def test_groups_must_partition_modes(self):
        with pytest.raises(PreconditionError):
            FlatteningPlan(order=3, groups=((0,), (1,), (1,)))
        with pytest.raises(PreconditionError):
            FlatteningPlan(order=4, groups=((0,), (1,), (2,)))
        with pytest.raises(PreconditionError):
            FlatteningPlan(order=3, groups=((0,), (1,), ()))

    def test_modes_must_be_integers(self):
        with pytest.raises(PreconditionError):
            FlatteningPlan(order=4, groups=((0.0,), (1,), (2, 3)))

    def test_valid_plan(self):
        plan = FlatteningPlan(order=5, groups=((0, 1), (2, 3), (4,)))
        assert plan.order == 5


class TestDefaultPlan:
    def test_order3_is_identity(self):
        assert default_plan((4, 4, 4)).groups == ((0,), (1,), (2,))

    def test_order5_uniform_balances_side_groups(self):
        # contiguous split of n^5 maximizing the smaller side product
        assert default_plan((4, 4, 4, 4, 4)).groups == ((0, 1), (2, 3), (4,))

    def test_uneven_shape_puts_weight_where_it_helps(self):
        # modes (2, 2, 9, 2, 2): grouping (0,1),(2),(3,4) gives side sizes
        # (4, 9) with min 4; every other contiguous split has min <= 4 and
        # less balance.
        plan = default_plan((2, 2, 9, 2, 2))
        sizes = [int(np.prod([(2, 2, 9, 2, 2)[m] for m in g])) for g in plan.groups]
        assert min(sizes[0], sizes[1]) == 4

    def test_order4(self):
        plan = default_plan((3, 3, 3, 3))
        assert plan.order == 4
        assert sum(len(g) for g in plan.groups) == 4


def _fit(flat, sizes):
    """The single-column call: one flat vector's fitted vectors and residual."""
    factors, residuals = unflatten_rank_one(np.asarray(flat)[:, None], sizes)
    return [f[:, 0] for f in factors], residuals[0]


class TestUnflattenRankOne:
    def test_exact_two_mode(self):
        x = np.array([1.0, -2.0, 0.5])
        y = np.array([2.0, 1.0])
        factors, residuals = unflatten_rank_one(np.kron(x, y)[:, None], [3, 2])
        assert [f.shape for f in factors] == [(3, 1), (2, 1)]
        assert residuals[0] <= 1e-10
        assert np.allclose(np.kron(factors[0][:, 0], factors[1][:, 0]), np.kron(x, y),
                           atol=1e-10)

    def test_noisy_two_mode(self):
        rng = np.random.default_rng(0)
        x = np.array([1.0, -2.0, 0.5])
        y = np.array([2.0, 1.0])
        flat = np.kron(x, y) + rng.uniform(-1e-6, 1e-6, 6)
        _, residual = _fit(flat, [3, 2])
        assert residual <= 1e-5

    def test_identity_flatten_flagged_not_rank_one(self):
        # vec(I_2) has two equal singular values; the best rank-one fit
        # captures half the energy, so the relative residual is 1/sqrt(2).
        _, residual = _fit(np.eye(2).ravel(), [2, 2])
        assert residual == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)

    def test_exact_three_mode(self):
        rng = np.random.default_rng(1)
        xs = [rng.standard_normal(s) for s in (3, 2, 4)]
        flat = _outer(xs).ravel()
        vecs, residual = _fit(flat, [3, 2, 4])
        assert residual <= 1e-10
        recon = _outer(vecs).ravel()
        assert np.allclose(recon, flat, atol=1e-10)

    @pytest.mark.parametrize("noise", [0.0, 1e-6])
    def test_two_mode_factors_equal_a_stacked_svd_reference(self, noise):
        # the best rank-one fit of each (3, 4) block from one stacked SVD,
        # the scale on the first vector
        rng = np.random.default_rng(6)
        columns = np.column_stack([
            np.kron(rng.standard_normal(3), rng.standard_normal(4)) for _ in range(7)
        ])
        columns = columns + noise * rng.standard_normal(columns.shape)
        factors, residuals = unflatten_rank_one(columns, [3, 4])
        u, s, vh = np.linalg.svd(columns.T.reshape(7, 3, 4), full_matrices=False)
        assert factors[0].tobytes() == (u[:, :, 0] * s[:, :1]).T.tobytes()
        assert factors[1].tobytes() == vh[:, 0, :].T.tobytes()
        tails = np.linalg.norm(s[:, 1:], axis=1) / np.linalg.norm(columns, axis=0)
        assert residuals == pytest.approx(tails, rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("sizes", [(2, 3, 2), (2, 3, 2, 3)])
    @pytest.mark.parametrize("k", [1, 6])
    def test_start_takes_one_stacked_svd_per_peeled_mode(self, monkeypatch, sizes, k):
        rng = np.random.default_rng(7)
        columns = np.column_stack([
            _outer([rng.standard_normal(s) for s in sizes]).ravel() for _ in range(k)
        ])
        shapes = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        unflatten_rank_one(columns, sizes)
        expected = [(k, n, math.prod(sizes[j + 1 :])) for j, n in enumerate(sizes[:-1])]
        assert shapes == expected

    @pytest.mark.parametrize("sizes", [(3, 2, 4), (2, 3, 2, 3), (2, 2, 3, 2, 2)])
    @pytest.mark.parametrize("noise", [0.0, 1e-6, 1e-3, 1e-1])
    def test_residual_is_the_dense_residual_of_the_factors(self, sizes, noise):
        # the peels' tails are orthogonal, so their weighted sum of squares
        # is the misfit of the returned vectors
        rng = np.random.default_rng(len(sizes))
        blocks = []
        for _ in range(10):
            block = _outer([rng.standard_normal(s) for s in sizes])
            scale = noise * np.linalg.norm(block) / np.sqrt(block.size)
            blocks.append(block + scale * rng.standard_normal(sizes))
        factors, residuals = unflatten_rank_one(
            np.column_stack([b.ravel() for b in blocks]), sizes
        )
        for i, block in enumerate(blocks):
            vecs = [f[:, i] for f in factors]
            dense = np.linalg.norm(block - _outer(vecs)) / np.linalg.norm(block)
            assert residuals[i] == pytest.approx(dense, rel=1e-9, abs=1e-14)
            # the scale rides on the first vector, the others are unit
            assert np.allclose([np.linalg.norm(v) for v in vecs[1:]], 1.0, atol=1e-14)

    @pytest.mark.parametrize("noise", [0.0, 1e-3])
    def test_three_mode_factors_equal_a_stacked_svd_reference(self, noise):
        # two peels: the (3, 8) blocks, then the (2, 4) blocks of their top
        # right vectors; both scales on the first vector
        rng = np.random.default_rng(8)
        columns = np.column_stack([
            _outer([rng.standard_normal(s) for s in (3, 2, 4)]).ravel() for _ in range(5)
        ])
        columns = columns + noise * rng.standard_normal(columns.shape)
        factors, residuals = unflatten_rank_one(columns, [3, 2, 4])
        u1, s1, vh1 = np.linalg.svd(columns.T.reshape(5, 3, 8), full_matrices=False)
        u2, s2, vh2 = np.linalg.svd(vh1[:, 0, :].reshape(5, 2, 4), full_matrices=False)
        assert factors[0].tobytes() == (u1[:, :, 0].T * (s1[:, 0] * s2[:, 0])).tobytes()
        assert factors[1].tobytes() == u2[:, :, 0].T.tobytes()
        assert factors[2].tobytes() == vh2[:, 0, :].T.tobytes()
        tails = np.hypot(np.linalg.norm(s1[:, 1:], axis=1),
                         s1[:, 0] * np.linalg.norm(s2[:, 1:], axis=1))
        assert residuals == pytest.approx(tails / np.linalg.norm(columns, axis=0),
                                          rel=1e-15, abs=1e-300)

    def test_collapsed_fit_stays_finite(self):
        # e1(x)e2(x)e1 + e2(x)e1(x)e2: every unfolding's singular values tie,
        # so no unfolding singles out a term; the fit must still find one of
        # the two terms, the best rank-one fit
        vecs, residual = _fit(_tied_block().ravel(), [2, 2, 2])
        assert all(np.all(np.isfinite(v)) for v in vecs)
        assert all(np.linalg.norm(v) > 0.5 for v in vecs)
        assert residual == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("sizes", [(6,), (3, 2), (2, 2, 2), (2, 3, 2, 3)])
    def test_stacked_columns_equal_single_column_calls_bitwise(self, sizes):
        rng = np.random.default_rng(5)
        columns = [
            _outer([rng.standard_normal(s) for s in sizes]).ravel()
            for _ in range(3)
        ]
        columns.append(rng.standard_normal(math.prod(sizes)))
        columns.append(np.zeros(math.prod(sizes)))
        if sizes == (2, 2, 2):
            columns.append(_tied_block().ravel())
        factors, residuals = unflatten_rank_one(np.column_stack(columns), sizes)
        assert [f.shape for f in factors] == [(s, len(columns)) for s in sizes]
        for i, column in enumerate(columns):
            vecs, residual = _fit(column, sizes)
            for f, v in zip(factors, vecs):
                assert f[:, i].tobytes() == v.tobytes()
            assert residuals[i].tobytes() == residual.tobytes()
        # the zero column fits as zero vectors with residual 0
        assert all(not np.any(f[:, 4]) for f in factors) and residuals[4] == 0.0

    @pytest.mark.parametrize("sizes", [(6,), (3, 2), (2, 3, 1)])
    def test_no_columns(self, sizes):
        factors, residuals = unflatten_rank_one(np.zeros((6, 0)), sizes)
        assert [f.shape for f in factors] == [(s, 0) for s in sizes]
        assert residuals.shape == (0,)


def _tied_block():
    """e1(x)e2(x)e1 + e2(x)e1(x)e2, whose unfoldings' top singular vectors tie."""
    e1, e2 = np.eye(2)
    return _outer([e1, e2, e1]) + _outer([e2, e1, e2])


class TestOvercompleteDecompose:
    def test_rank_one_order5(self):
        rng = np.random.default_rng(2)
        vecs = [rng.standard_normal(2) for _ in range(5)]
        t = DenseTensor(_outer(vecs))
        found, report = overcomplete_decompose(t)
        assert found.rank == 1
        recon = synthesize(found)
        assert np.allclose(recon.data, t.data, atol=1e-8)

    def test_overcomplete_rank_beyond_mode_size(self):
        # k = 7 exceeds every mode size n = 4; the order-5 flattening makes
        # the side factors tall enough for simultaneous diagonalization.
        truth = smoothed_decomposition((4, 4, 4, 4, 4), 7, rho=0.5, seed=5)
        t = synthesize(truth)
        found, report = overcomplete_decompose(t)
        assert found.rank == 7
        assert match_terms(found, truth).max_error < 1e-5
        assert report.suspect_terms == []
        assert max(report.unflatten_residuals) < 1e-6

    def test_identity_plan_distpatches_to_jennrich_bitwise(self):
        truth = smoothed_decomposition((5, 5, 5), 3, rho=0.5, seed=6)
        t = synthesize(truth)
        cfg = JennrichConfig(seed=9)
        via_plan, _ = overcomplete_decompose(
            t, plan=FlatteningPlan(order=3, groups=((0,), (1,), (2,))), config=cfg
        )
        direct, _ = jennrich_decompose(t, cfg)
        for f, g in zip(via_plan.factors, direct.factors):
            assert np.array_equal(f, g)
        assert np.array_equal(via_plan.weights, direct.weights)

    def test_custom_plan(self):
        # non-default grouping; k must fit the smaller fused side (3 here)
        truth = smoothed_decomposition((3, 3, 3, 3), 3, rho=0.5, seed=7)
        t = synthesize(truth)
        plan = FlatteningPlan(order=4, groups=((0, 1), (2,), (3,)))
        found, _ = overcomplete_decompose(t, plan=plan)
        assert match_terms(found, truth).max_error < 1e-5

    def test_plan_order_must_match(self):
        truth = smoothed_decomposition((3, 3, 3), 2, rho=0.5, seed=8)
        plan = FlatteningPlan(order=4, groups=((0,), (1,), (2, 3)))
        with pytest.raises(PreconditionError):
            overcomplete_decompose(synthesize(truth), plan=plan)

    def test_order_below_three_rejected(self):
        # the entry check the flattening and the default plan rely on
        with pytest.raises(PreconditionError, match="expects order >= 3"):
            overcomplete_decompose(DenseTensor(np.ones((3, 3))))

    def test_three_mode_groups_order7(self):
        truth = smoothed_decomposition((3,) * 7, 8, rho=0.5, seed=0)
        t = synthesize(truth)
        assert default_plan(t.shape).groups == ((0, 1, 2), (3, 4, 5), (6,))
        found, report = overcomplete_decompose(t)
        assert match_terms(found, truth).max_error < 1e-10
        assert report.suspect_terms == []
        assert max(report.unflatten_residuals) < 1e-10

    def test_exact_order7_takes_one_polish_sweep(self, monkeypatch):
        # one sweep of the whole-tensor polish inverts one Gram product per mode
        truth = smoothed_decomposition((3,) * 7, 8, rho=0.5, seed=1)
        calls = []
        original = tensor_core.pseudoinverse

        def counted(m):
            calls.append(np.shape(m))
            return original(m)

        monkeypatch.setattr(tensor_core, "pseudoinverse", counted)
        found, _ = overcomplete_decompose(synthesize(truth))
        assert calls == [(8, 8)] * 7
        assert match_terms(found, truth).max_error < 1e-10

    @pytest.mark.parametrize("groups, polishes", [
        (((0, 1), (2, 3), (4,)), 0),
        (((0,), (1, 2), (3, 4)), 0),
        (((0, 1, 2), (3,), (4,)), 1),
    ])
    def test_only_a_group_of_three_modes_is_polished(self, monkeypatch, groups, polishes):
        truth = smoothed_decomposition((4,) * 5, 4, rho=0.5, seed=10)
        calls = []
        original = overcomplete._als_refine

        def counted(data, factors):
            calls.append(data.shape)
            return original(data, factors)

        monkeypatch.setattr(overcomplete, "_als_refine", counted)
        plan = FlatteningPlan(order=5, groups=groups)
        found, _ = overcomplete_decompose(synthesize(truth), plan=plan)
        assert calls == [(4,) * 5] * polishes
        assert match_terms(found, truth).max_error < 1e-8

    def test_zero_tensor_gives_no_terms(self):
        found, report = overcomplete_decompose(DenseTensor(np.zeros((3,) * 7)))
        assert found.rank == 0 and found.shape == (3,) * 7
        assert report.unflatten_residuals == [] and report.suspect_terms == []

    def test_rank_zero_gives_no_terms(self):
        t = synthesize(smoothed_decomposition((3,) * 7, 8, rho=0.5, seed=2))
        found, report = overcomplete_decompose(t, config=JennrichConfig(rank=0))
        assert found.rank == 0 and found.shape == (3,) * 7
        assert report.unflatten_residuals == []

    def test_term_residual_is_its_worst_group(self):
        # noise makes every group's fit residual nonzero, so the worst group
        # differs from term to term
        truth = smoothed_decomposition((2, 3, 2, 3, 3), 4, rho=0.5, seed=11)
        noisy = synthesize(truth).data
        noisy = noisy + 1e-3 * np.random.default_rng(12).standard_normal(noisy.shape)
        t, cfg = DenseTensor(noisy), JennrichConfig(rank=4, seed=13)
        plan = FlatteningPlan(order=5, groups=((0, 1), (2, 3), (4,)))
        _, report = overcomplete_decompose(t, plan=plan, config=cfg)
        d3, _ = jennrich_decompose(flatten_to_order3(t, *plan.groups), cfg)
        per_group = np.array([
            unflatten_rank_one(columns, [t.shape[m] for m in group])[1]
            for group, columns in zip(plan.groups, d3.factors)
        ])
        assert len(set(np.argmax(per_group, axis=0))) == 2
        assert report.unflatten_residuals == np.max(per_group, axis=0).tolist()

    def test_report_carries_unflatten_residuals(self):
        truth = smoothed_decomposition((4, 4, 4, 4, 4), 6, rho=0.5, seed=9)
        found, report = overcomplete_decompose(synthesize(truth))
        assert len(report.unflatten_residuals) == 6
        assert report.suspect_terms == []
