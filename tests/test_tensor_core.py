"""Tensor container, CP canonical form, and serialization round trips."""

import functools
import json
import struct
import tracemalloc

import numpy as np
import pytest

from tensordec import (
    CpDecomposition,
    DenseTensor,
    FormatError,
    PreconditionError,
    border_rank_fixture,
    decomposition_to_dict,
    frobenius_norm,
    read_decomposition,
    read_tnsr,
    synthesize,
)
from tensordec import tensor_core
from tensordec.cli import _json_bytes
from tensordec.tensor_core import (
    decomposition_from_dict,
    flatten_to_order3,
    khatri_rao,
    slice_combination,
    tnsr_bytes,
)


class TestDenseTensor:
    def test_data_length_matches_shape(self):
        t = DenseTensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.order == 3
        assert t.data.size == 24

    def test_rejects_non_finite(self):
        with pytest.raises(PreconditionError):
            DenseTensor(np.array([1.0, np.nan]))
        with pytest.raises(PreconditionError):
            DenseTensor(np.array([[np.inf, 0.0]]))

    def test_data_is_read_only(self):
        t = DenseTensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0] = 5.0

    def test_order_zero_rejected(self):
        with pytest.raises(PreconditionError):
            DenseTensor(np.float64(1.0))

    def test_stores_one_c_order_copy(self):
        src = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        t = DenseTensor(src)
        src[0, 0] = 9.0
        assert t.data[0, 0] == 0.0
        assert t.data.flags.c_contiguous
        assert np.array_equal(t.data, np.arange(6.0).reshape(2, 3))
        # a column-major input is reordered and stored in one copy, not two
        src = np.asfortranarray(np.ones((64, 64, 16)))
        tracemalloc.start()
        try:
            t = DenseTensor(src)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * t.data.nbytes


class TestCpDecomposition:
    def test_factor_column_counts_validated(self):
        with pytest.raises(PreconditionError):
            CpDecomposition([np.ones((3, 2)), np.ones((3, 1))], [1.0, 1.0])

    def test_canonical_unit_columns_and_weight_folding(self):
        d = CpDecomposition(
            [np.array([[2.0, 0.0], [0.0, -3.0]])], np.array([1.0, 1.0])
        )
        assert np.allclose(d.factors[0], np.eye(2))
        assert np.allclose(d.weights, [2.0, -3.0])

    def test_sign_flip_scales_whole_column(self):
        # Canonicalization may only rescale columns; an output column that
        # is not parallel to its input means the flip corrupted memory.
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((16, 8))
        mat[0, :] = -np.abs(mat[0, :])
        d = CpDecomposition([mat], np.ones(8))
        for i in range(8):
            ref = np.array(mat[:, i]) / np.linalg.norm(mat[:, i])
            got = d.factors[0][:, i]
            assert min(np.abs(got - ref).max(), np.abs(got + ref).max()) < 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_magnitude_rejected(self):
        # the column norm squares its entry past float64, so the weight
        # would come out inf (or nan against a zero weight)
        for weight in (1.0, 0.0):
            with pytest.raises(PreconditionError):
                CpDecomposition([np.array([[1.5e154]])], [weight])

    def test_zero_column_left_untouched(self):
        d = CpDecomposition([np.zeros((3, 1))], np.array([2.0]))
        assert np.array_equal(d.factors[0], np.zeros((3, 1)))
        assert d.weights[0] == 2.0

    def test_matches_column_loop(self):
        # The reference canonicalizes one column at a time; the constructor
        # does each factor matrix at once and must give the same form.
        def loop_canonical(factors, weights):
            mats = [np.array(f, dtype=np.float64) for f in factors]
            w = np.array(weights, dtype=np.float64)
            for f in mats:
                for i in range(w.shape[0]):
                    col = f[:, i]
                    norm = float(np.linalg.norm(col))
                    if norm > 0.0:
                        col /= norm
                        w[i] *= norm
                    nz = np.flatnonzero(col)
                    if nz.size and col[nz[0]] < 0.0:
                        col *= -1.0
                        w[i] = -w[i]
            return mats, w

        rng = np.random.default_rng(11)
        for _ in range(20):
            rank = int(rng.integers(1, 9))
            factors = [rng.standard_normal((int(n), rank))
                       for n in rng.integers(1, 7, size=3)]
            weights = rng.standard_normal(rank)
            factors[0][:, 0] = 0.0                 # a zero column
            factors[1][0, -1] = 0.0                # first entry 0
            factors[2][: factors[2].shape[0] // 2, rank // 2] = 0.0  # leading zeros
            d = CpDecomposition(factors, weights)
            ref_mats, ref_w = loop_canonical(factors, weights)
            for got, ref in zip(d.factors, ref_mats):
                np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-15)
                assert np.array_equal(np.sign(got), np.sign(ref))
            np.testing.assert_allclose(d.weights, ref_w, rtol=1e-14, atol=0.0)
            assert np.array_equal(d.factors[0][:, 0], np.zeros(d.shape[0]))

    def test_factors_read_only(self):
        d = CpDecomposition([np.eye(2)], np.ones(2))
        with pytest.raises(ValueError):
            d.factors[0][0, 0] = 9.0


def _outer_product_sum(factors, weights):
    """Reference for synthesize: the explicit sum of weighted outer products."""
    acc = np.zeros(tuple(f.shape[0] for f in factors))
    for i, w in enumerate(weights):
        term = np.array(w)
        for f in factors:
            term = np.multiply.outer(term, f[:, i])
        acc += term
    return acc


# orders 1 to 6, then shapes with modes of size 1
_SYNTH_SHAPES = [(5,), (3, 4), (2, 3, 4), (3, 2, 2, 3), (2, 3, 2, 2, 2), (2,) * 6,
                 (1,), (4, 1), (1, 3, 1), (2, 1, 1, 2, 1)]


class TestSynthesize:
    @pytest.mark.parametrize("shape", _SYNTH_SHAPES, ids=str)
    @pytest.mark.parametrize("rank", ["zero", "one", "above-modes"])
    def test_matches_outer_product_sum(self, shape, rank):
        k = {"zero": 0, "one": 1, "above-modes": max(shape) + 2}[rank]
        rng = np.random.default_rng(10 * len(shape) + k)
        d = CpDecomposition([rng.standard_normal((n, k)) for n in shape],
                            rng.uniform(-2.0, 2.0, k))
        expected = _outer_product_sum(d.factors, d.weights)
        got = synthesize(d).data
        assert got.shape == shape
        assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)

    @pytest.mark.parametrize("shape, k, bound", [
        # 16 modes of size 2 at rank 64: split after the first mode, the
        # trailing Khatri-Rao product alone would be 32 times the output
        ((2,) * 16, 64, 2.5),
        # small temporaries: the GEMM's output is stored, not copied again
        ((64,) * 3, 4, 1.5),
    ])
    def test_peak_allocation_near_output_size(self, shape, k, bound):
        rng = np.random.default_rng(3)
        d = CpDecomposition([rng.standard_normal((n, k)) for n in shape], np.ones(k))
        tracemalloc.start()
        try:
            t = synthesize(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * t.data.nbytes
        assert not t.data.flags.writeable

    def test_overflowing_sum_rejected(self):
        # each term is finite; their sum at entry (0, 0, 0) is 2e308
        e1 = np.array([[1.0, 1.0], [0.0, 0.0]])
        d = CpDecomposition([e1, e1, e1], [1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(PreconditionError):
            synthesize(d)

    def test_rank_one_basis_columns(self):
        e1 = np.zeros((3, 1))
        e1[0, 0] = 1.0
        d = CpDecomposition([e1, e1, e1], [1.0])
        t = synthesize(d)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 1.0
        assert np.array_equal(t.data, expected)

    def test_rank_zero_is_zero_tensor(self):
        d = CpDecomposition([np.zeros((2, 0)), np.zeros((3, 0))], [])
        assert np.array_equal(synthesize(d).data, np.zeros((2, 3)))

    def test_rank_two_matches_outer_product_sum(self):
        rng = np.random.default_rng(11)
        cols = [rng.standard_normal((3, 2)) for _ in range(3)]
        w = np.array([1.5, -0.5])
        d = CpDecomposition(cols, w)
        manual = sum(
            d.weights[i] * np.einsum("i,j,k->ijk", *[f[:, i] for f in d.factors])
            for i in range(2)
        )
        assert np.allclose(synthesize(d).data, manual, atol=1e-14)


class TestSliceCombination:
    def test_basis_vector_selects_slice(self):
        rng = np.random.default_rng(0)
        t = DenseTensor(rng.standard_normal((3, 4, 5)))
        e2 = np.zeros(5)
        e2[2] = 1.0
        assert np.array_equal(slice_combination(t, e2), t.data[:, :, 2])

    def test_zero_vector_gives_zero_matrix(self):
        t = DenseTensor(np.ones((2, 2, 2)))
        assert np.array_equal(slice_combination(t, np.zeros(2)), np.zeros((2, 2)))

    def test_rank_one_gives_scaled_outer(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, -1.0])
        w = np.array([0.5, 2.0])
        a = np.array([1.0, 1.0])
        t = DenseTensor(np.einsum("i,j,k->ijk", u, v, w))
        assert np.allclose(slice_combination(t, a), (w @ a) * np.outer(u, v))


class TestKhatriRao:
    def test_identity_columns(self):
        out = khatri_rao(np.eye(2), np.eye(2))
        assert np.array_equal(out[:, 0], [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(out[:, 1], [0.0, 0.0, 0.0, 1.0])

    def test_hand_expanded_column(self):
        a = np.array([[1.0], [1.0]])
        b = np.array([[2.0], [3.0]])
        assert np.array_equal(khatri_rao(a, b), [[2.0], [3.0], [2.0], [3.0]])

    def test_general_values_against_kron(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = khatri_rao(a, b)
        assert np.array_equal(out[:, 0], np.kron(a[:, 0], b[:, 0]))
        assert np.array_equal(out, [[5.0, 12.0], [7.0, 16.0], [15.0, 24.0], [21.0, 32.0]])

    def test_empty(self):
        out = khatri_rao(np.zeros((2, 0)), np.zeros((3, 0)))
        assert out.shape == (6, 0)


class TestAlsRefine:
    @pytest.mark.parametrize("shape", [(4, 5, 3), (3, 4, 3, 2)])
    def test_exact_start_takes_one_sweep(self, monkeypatch, shape):
        rng = np.random.default_rng(7)
        factors = [rng.standard_normal((n, 3)) for n in shape]
        data = synthesize(CpDecomposition(factors, np.ones(3))).data
        calls = []
        original = tensor_core.pseudoinverse
        monkeypatch.setattr(
            tensor_core, "pseudoinverse", lambda m: calls.append(1) or original(m)
        )
        refined = tensor_core._als_refine(data, factors)
        assert len(calls) == len(shape)
        for f, g in zip(refined, factors):
            assert np.allclose(f, g, rtol=0, atol=1e-12)

    def test_perturbed_start_moves_toward_the_exact_fit(self):
        rng = np.random.default_rng(8)
        factors = [rng.standard_normal((n, 2)) for n in (4, 3, 5)]
        data = synthesize(CpDecomposition(factors, np.ones(2))).data
        start = [f + 1e-4 * rng.standard_normal(f.shape) for f in factors]

        def misfit(fs):
            return np.linalg.norm(synthesize(CpDecomposition(fs, np.ones(2))).data - data)

        assert misfit(tensor_core._als_refine(data, start)) < 1e-2 * misfit(start)

    def test_polish_holds_one_unfolding_at_a_time(self):
        # a 6^7 tensor is 2.1 MiB; holding all seven unfoldings, five of
        # them transposed copies, peaked at 23.2 MiB, and one at a time at 12.5
        rng = np.random.default_rng(9)
        factors = [rng.standard_normal((6, 16)) for _ in range(7)]
        data = synthesize(CpDecomposition(factors, np.ones(16))).data
        data = data + 1e-6 * rng.standard_normal(data.shape)
        start = [f + 1e-3 * rng.standard_normal(f.shape) for f in factors]
        tracemalloc.start()
        try:
            tensor_core._als_refine(data, start)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12.6 * 2**20


class TestFlattenToOrder3:
    def test_singleton_groups_identity(self):
        rng = np.random.default_rng(1)
        t = DenseTensor(rng.standard_normal((2, 3, 4)))
        flat = flatten_to_order3(t, (0,), (1,), (2,))
        assert np.array_equal(flat.data, t.data)

    def test_rank_one_order5_fuses_to_rank_one(self):
        rng = np.random.default_rng(2)
        vecs = [rng.standard_normal(2) for _ in range(5)]
        t = DenseTensor(functools.reduce(np.multiply.outer, vecs))
        flat = flatten_to_order3(t, (0, 1), (2, 3), (4,))
        expected = np.einsum(
            "i,j,k->ijk", np.kron(vecs[0], vecs[1]), np.kron(vecs[2], vecs[3]), vecs[4]
        )
        assert np.allclose(flat.data, expected, atol=1e-14)

    def test_all_ones_tensor(self):
        t = DenseTensor(np.ones((2, 2, 2, 2)))
        flat = flatten_to_order3(t, (0, 1), (2,), (3,))
        assert flat.shape == (4, 2, 2)
        assert np.array_equal(flat.data, np.ones((4, 2, 2)))

    def test_explicit_index_mapping(self):
        # Oracle: walk every multi-index and compute the fused coordinates
        # by hand, independent of any reshape/transpose shortcut.
        rng = np.random.default_rng(4)
        t = DenseTensor(rng.standard_normal((2, 3, 4, 5)))
        flat = flatten_to_order3(t, (1, 3), (0,), (2,))
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    for l in range(5):
                        assert flat.data[j * 5 + l, i, k] == t.data[i, j, k, l]


class TestFrobeniusNorm:
    def test_zero_tensor(self):
        assert frobenius_norm(DenseTensor(np.zeros((2, 2)))) == 0.0

    def test_single_entry(self):
        assert frobenius_norm(DenseTensor(np.array([[3.0]]))) == 3.0

    def test_sum_of_squares(self):
        t = DenseTensor(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert frobenius_norm(t) == pytest.approx(5.0)


class TestBorderRankFixture:
    def test_limit_tensor_entries(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        a, _ = border_rank_fixture(u, v, 10.0)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = expected[1, 0, 0] = expected[0, 1, 0] = 1.0
        assert np.array_equal(a.data, expected)

    def test_approximation_error_shrinks_like_one_over_m(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        a, approx = border_rank_fixture(u, v, 10.0)
        err10 = frobenius_norm(DenseTensor(a.data - synthesize(approx).data))
        assert err10 <= 3.0 / 10.0
        _, approx20 = border_rank_fixture(u, v, 20.0)
        err20 = frobenius_norm(DenseTensor(a.data - synthesize(approx20).data))
        assert err20 == pytest.approx(err10 / 2.0, rel=0.2)

    def test_weights_grow_like_m(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        _, approx = border_rank_fixture(u, v, 50.0)
        assert np.abs(approx.weights).max() >= 50.0

    def test_requires_orthonormal_inputs(self):
        with pytest.raises(PreconditionError):
            border_rank_fixture(np.array([2.0, 0.0]), np.array([0.0, 1.0]), 5)
        with pytest.raises(PreconditionError):
            border_rank_fixture(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 5)


class TestTnsrFormat:
    def test_frozen_byte_layout(self):
        # Container bytes spelled out: JSON header line, then little-endian
        # float64 entries in row-major order.
        t = DenseTensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        expected = b'{"order": 2, "shape": [2, 2]}\n' + struct.pack(
            "<4d", 1.0, 2.0, 3.0, 4.0
        )
        assert tnsr_bytes(t) == expected

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        t = DenseTensor(rng.standard_normal((3, 2, 4)))
        path = tmp_path / "t.tnsr"
        path.write_bytes(tnsr_bytes(t))
        back = read_tnsr(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_missing_header_newline(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b'{"order": 1, "shape": [1]}')
        with pytest.raises(FormatError):
            read_tnsr(path)

    def test_bad_header_json(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b"not json\n" + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_tnsr(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b'{"order": 1, "shape": [2]}\n' + b"\x00" * 8)
        with pytest.raises(FormatError):
            read_tnsr(path)

    def test_oversized_shape_rejected(self, tmp_path):
        # 2^32 * 2^32 entries wrap to 0 in a fixed-width product
        path = tmp_path / "big.tnsr"
        path.write_bytes(b'{"order": 2, "shape": [4294967296, 4294967296]}\n')
        with pytest.raises(FormatError):
            read_tnsr(path)

    def test_order_zero_rejected(self, tmp_path):
        path = tmp_path / "scalar.tnsr"
        path.write_bytes(b'{"order": 0, "shape": []}\n' + struct.pack("<d", 1.0))
        with pytest.raises(FormatError):
            read_tnsr(path)

    def test_inconsistent_order_shape(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(b'{"order": 2, "shape": [4]}\n' + b"\x00" * 32)
        with pytest.raises(FormatError):
            read_tnsr(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "bad.tnsr"
        path.write_bytes(
            b'{"order": 1, "shape": [1]}\n' + struct.pack("<d", float("nan"))
        )
        with pytest.raises(FormatError):
            read_tnsr(path)


class TestDecompositionJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        d = CpDecomposition(
            [rng.standard_normal((4, 3)) for _ in range(3)], rng.standard_normal(3)
        )
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_dict(d)))
        back = read_decomposition(path)
        assert back.rank == d.rank
        assert back.shape == d.shape
        for f, g in zip(back.factors, d.factors):
            assert np.allclose(f, g, atol=1e-15)
        assert np.allclose(back.weights, d.weights, atol=1e-15)

    def test_serialized_form_is_sorted_json_with_newline(self):
        # the form the CLI writes truth.json and decomposition.json in
        d = CpDecomposition([np.eye(2)], np.ones(2))
        text = _json_bytes(decomposition_to_dict(d)).decode("utf-8")
        assert text.endswith("\n")
        obj = json.loads(text)
        assert list(obj) == sorted(obj)
        assert obj["order"] == 1
        assert obj["rank"] == 2
        assert obj["shape"] == [2]

    def test_rank_zero_round_trip_keeps_shape(self, tmp_path):
        d = CpDecomposition([np.zeros((3, 0)), np.zeros((2, 0))], [])
        path = tmp_path / "d.json"
        path.write_text(json.dumps(decomposition_to_dict(d)))
        back = read_decomposition(path)
        assert back.rank == 0
        assert back.shape == (3, 2)

    def test_missing_fields_raise_format_error(self):
        with pytest.raises(FormatError):
            decomposition_from_dict({"order": 1})
        with pytest.raises(FormatError):
            decomposition_from_dict(
                {"order": 2, "rank": 1, "weights": [1.0], "factors": [[[1.0]]]}
            )

    def test_shape_field_must_match_factors(self):
        obj = decomposition_to_dict(CpDecomposition([np.eye(2)], np.ones(2)))
        obj["shape"] = [3]
        with pytest.raises(FormatError):
            decomposition_from_dict(obj)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            read_decomposition(path)
