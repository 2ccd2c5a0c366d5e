"""Command line driver: outputs, manifests, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from tensordec import (
    CpDecomposition,
    DenseTensor,
    __version__,
    hmm_random_params,
    hmm_sample,
    read_decomposition,
    read_tnsr,
    synthesize,
)
from tensordec.tensor_core import decomposition_to_dict, tnsr_bytes
from tensordec import smoothed_lab
from tensordec.cli import build_parser, main


def run(tmp_path, *argv):
    out = tmp_path / f"out{abs(hash(argv)) % 10_000}"
    code = main([*argv, "--out", str(out)])
    return code, out


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_strict_json(path):
    """JSON that holds no NaN or Infinity, which the JSON grammar lacks."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=pytest.fail)


class TestSynth:
    def test_repeat_runs_byte_identical(self, tmp_path):
        args = ["synth", "--shape", "8,8,8", "--rank", "5", "--seed", "1"]
        code1, out1 = run(tmp_path / "a", *args)
        code2, out2 = run(tmp_path / "b", *args)
        assert code1 == code2 == 0
        for name in ("truth.json", "tensor.tnsr"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_truth_synthesizes_to_tensor(self, tmp_path):
        code, out = run(tmp_path, "synth", "--shape", "5,4,3", "--rank", "3",
                        "--seed", "2")
        assert code == 0
        truth = read_decomposition(str(out / "truth.json"))
        tensor = read_tnsr(str(out / "tensor.tnsr"))
        assert np.allclose(synthesize(truth).data, tensor.data, atol=1e-12)

    def test_smoothed_model(self, tmp_path):
        code, out = run(tmp_path, "synth", "--shape", "4,4,4,4,4", "--rank", "7",
                        "--model", "smoothed", "--rho", "0.5", "--seed", "3")
        assert code == 0
        truth = read_decomposition(str(out / "truth.json"))
        assert truth.rank == 7
        assert truth.shape == (4, 4, 4, 4, 4)

    def test_noise_bounded_in_sup_norm(self, tmp_path):
        quiet_code, quiet = run(tmp_path / "q", "synth", "--shape", "6,6,6",
                                "--rank", "4", "--seed", "4")
        noisy_code, noisy = run(tmp_path / "n", "synth", "--shape", "6,6,6",
                                "--rank", "4", "--seed", "4", "--noise", "1e-9")
        assert quiet_code == noisy_code == 0
        clean = read_tnsr(str(quiet / "tensor.tnsr"))
        perturbed = read_tnsr(str(noisy / "tensor.tnsr"))
        diff = np.max(np.abs(perturbed.data - clean.data))
        assert 0 < diff <= 1e-9

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # synth runs no pool of its own; the GEMM that builds the tensor may
        # run on several BLAS threads, which must not move a bit
        src = os.path.dirname(os.path.dirname(os.path.abspath(smoothed_lab.__file__)))
        written = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-m", "tensordec.cli", "synth", "--shape", "48,48,48",
                 "--rank", "24", "--seed", "5", "--out", str(out)],
                env=env, capture_output=True, timeout=120, check=True,
            )
            written.append((out / "tensor.tnsr").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("rho", ["1e200", "1e300", "inf", "nan", "0"])
    def test_unusable_rho_exits_4(self, tmp_path, capsys, rho):
        # the perturbed column norms of 1e200 and 1e300 overflow to inf
        code, out = run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "3",
                        "--model", "smoothed", "--rho", rho)
        assert code == 4
        assert "rho" in capsys.readouterr().err
        assert not out.exists()

    def test_subnormal_rho_runs(self, tmp_path):
        # the lab's threshold-scale floor is not synth's: a tiny rho only
        # leaves the random unit columns unperturbed
        code, out = run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "3",
                        "--model", "smoothed", "--rho", "1e-320")
        assert code == 0
        assert read_decomposition(str(out / "truth.json")).rank == 3

    def test_negative_noise_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "2",
                "--noise", "-1")
        assert exc_info.value.code == 2
        assert "--noise" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_infinite_noise_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "2",
                "--noise", "inf")
        assert exc_info.value.code == 2
        assert "--noise" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_noise_with_an_infinite_range_exits_4(self, tmp_path):
        # 2 * 1e308 overflows the range of the uniform draw; the run must stop
        # before numpy sees it, so warnings are errors here. 8e307 still fits.
        src = os.path.dirname(os.path.dirname(os.path.abspath(smoothed_lab.__file__)))

        def synth(noise):
            out = tmp_path / noise
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "tensordec.cli", "synth",
                 "--shape", "4,4,4", "--rank", "2", "--noise", noise, "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                timeout=120,
            )
            return proc, out

        proc, out = synth("1e308")
        assert proc.returncode == 4, proc.stderr
        assert "--noise" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()
        proc, out = synth("8e307")
        assert proc.returncode == 0, proc.stderr
        assert np.all(np.isfinite(read_tnsr(str(out / "tensor.tnsr")).data))

    def test_shape_beyond_physical_memory_exits_4_before_drawing(self, tmp_path, capsys):
        # 8e21 bytes of dense tensor is refused before the three (1e7, 1)
        # factors and their QR are built (about 700 MiB), so nothing is allocated
        tracemalloc.start()
        try:
            code, out = run(tmp_path, "synth", "--shape", "10000000,10000000,10000000",
                            "--rank", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "does not fit in memory" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2**20

    def test_bad_shape_exit_code(self, tmp_path):
        code, out = run(tmp_path, "synth", "--shape", "8,oops", "--rank", "2")
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("shape", ["6,6,5", "6,6", "4,4,4,4"])
    def test_orthogonal_symmetric_needs_a_cubic_shape(self, tmp_path, capsys, shape):
        code, out = run(tmp_path, "synth", "--shape", shape, "--rank", "2",
                        "--model", "orthogonal-symmetric")
        assert code == 4
        assert "cubic order-3 shape" in capsys.readouterr().err
        assert not out.exists()


class TestDecompose:
    def test_round_trip_reports_small_error(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "8,8,8",
                           "--rank", "5", "--seed", "5")
        code, out = run(
            tmp_path / "d", "decompose",
            "--input", str(synth_out / "tensor.tnsr"),
            "--truth", str(synth_out / "truth.json"),
            "--seed", "6",
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["max_error"] < 1e-6
        assert report["max_error_relative"] < 1e-9
        found = read_decomposition(str(out / "decomposition.json"))
        assert found.rank == 5

    def test_flatten_with_explicit_groups(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "4,4,4,4,4",
                           "--rank", "7", "--model", "smoothed", "--seed", "7")
        code, out = run(
            tmp_path / "d", "decompose",
            "--input", str(synth_out / "tensor.tnsr"),
            "--method", "flatten-jennrich",
            "--groups", "1,2/3,4/5",
            "--truth", str(synth_out / "truth.json"),
            "--seed", "8",
        )
        assert code == 0
        found = read_decomposition(str(out / "decomposition.json"))
        assert found.order == 5
        assert read_json(out / "report.json")["max_error"] < 1e-5

    def test_order7_noisy_flatten_is_polished(self, tmp_path):
        # the split of each 3-mode group alone leaves a worst term of 1.8e-3
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "3,3,3,3,3,3,3",
                           "--rank", "8", "--model", "smoothed", "--noise", "1e-6",
                           "--seed", "18")
        code, out = run(
            tmp_path / "d", "decompose",
            "--input", str(synth_out / "tensor.tnsr"),
            "--method", "flatten-jennrich", "--rank", "8", "--seed", "18",
            "--truth", str(synth_out / "truth.json"),
        )
        assert code == 0
        assert read_json(out / "report.json")["max_error_relative"] <= 1e-5

    def test_flatten_at_rank_zero_writes_no_terms(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "3,3,3,3,3,3,3",
                           "--rank", "8", "--model", "smoothed", "--seed", "2")
        code, out = run(
            tmp_path / "d", "decompose",
            "--input", str(synth_out / "tensor.tnsr"),
            "--method", "flatten-jennrich", "--rank", "0",
        )
        assert code == 0
        assert read_decomposition(str(out / "decomposition.json")).rank == 0

    @pytest.mark.parametrize("groups, message", [
        ("0,2/3,4/5", "--groups counts modes from 1, got 0"),
        ("1,2/3,4/6", "--groups 1,2/3,4/6 does not partition modes 1 to 5"),
        ("1,2/3,4/4", "--groups 1,2/3,4/4 does not partition modes 1 to 5"),
    ])
    def test_groups_errors_count_modes_from_one(self, tmp_path, capsys, groups, message):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "4,4,4,4,4", "--rank", "3")
        code, out = run(
            tmp_path / "d", "decompose",
            "--input", str(synth_out / "tensor.tnsr"),
            "--method", "flatten-jennrich", "--groups", groups,
        )
        assert code == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, shape, message", [
        ("flatten-jennrich", (3, 3), "overcomplete_decompose expects order >= 3"),
        ("jennrich", (2, 2, 2, 2), "jennrich_decompose expects an order-3 tensor"),
    ], ids=["flatten-order-2", "jennrich-order-4"])
    def test_wrong_order_exits_4(self, tmp_path, capsys, method, shape, message):
        # the decomposers' entry checks reject the order before any helper runs
        data = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape)
        (tmp_path / "t.tnsr").write_bytes(tnsr_bytes(DenseTensor(data)))
        code, out = run(tmp_path, "decompose", "--input", str(tmp_path / "t.tnsr"),
                        "--method", method)
        assert code == 4
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_power_method_with_whitening(self, tmp_path):
        from tensordec import gmm_orthogonal_params, gmm_statistic_exact

        params = gmm_orthogonal_params(6, 3, norm=4.0, seed=9)
        t3 = gmm_statistic_exact(params, order=3)
        m2 = params.means @ params.means.T / params.k
        from tensordec import DenseTensor

        (tmp_path / "t3.tnsr").write_bytes(tnsr_bytes(t3))
        (tmp_path / "m2.tnsr").write_bytes(tnsr_bytes(DenseTensor(m2)))
        code, out = run(
            tmp_path, "decompose",
            "--input", str(tmp_path / "t3.tnsr"),
            "--method", "power", "--rank", "3",
            "--whiten", str(tmp_path / "m2.tnsr"),
        )
        assert code == 0
        report = read_json(out / "report.json")
        assert report["deflation_residual"] < 1e-9

    def test_power_method_repeats_bytes(self, tmp_path):
        from tensordec import DenseTensor, random_orthogonal_symmetric

        truth = random_orthogonal_symmetric(16, 8, seed=3)
        basis = truth.factors[0]
        (tmp_path / "t.tnsr").write_bytes(tnsr_bytes(synthesize(truth)))
        (tmp_path / "m2.tnsr").write_bytes(
            tnsr_bytes(DenseTensor(basis * truth.weights @ basis.T)))
        for extra in ([], ["--whiten", str(tmp_path / "m2.tnsr")]):
            primary = []
            for rep in ("a", "b"):
                code, out = run(tmp_path / rep, "decompose",
                                "--input", str(tmp_path / "t.tnsr"),
                                "--method", "power", "--rank", "8",
                                "--seed", "4", *extra)
                assert code == 0
                primary.append({p.name: p.read_bytes() for p in out.iterdir()
                                if p.name != "manifest.json"})
            assert primary[0] == primary[1]

    def test_power_method_on_orthogonal_symmetric_synth(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "6,6,6", "--rank", "3",
                           "--model", "orthogonal-symmetric", "--seed", "1")
        code, out = run(tmp_path / "d", "decompose",
                        "--input", str(synth_out / "tensor.tnsr"),
                        "--method", "power", "--rank", "3", "--seed", "1",
                        "--truth", str(synth_out / "truth.json"))
        assert code == 0
        report = read_json(out / "report.json")
        assert report["deflation_residual"] < 1e-10
        assert report["max_error"] < 1e-10

    def test_power_method_on_noisy_orthogonal_symmetric_synth(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "6,6,6", "--rank", "3",
                           "--model", "orthogonal-symmetric", "--noise", "1e-6")
        code, out = run(tmp_path / "d", "decompose",
                        "--input", str(synth_out / "tensor.tnsr"),
                        "--method", "power", "--rank", "3",
                        "--truth", str(synth_out / "truth.json"))
        assert code == 0
        assert read_json(out / "report.json")["max_error"] < 1e-5

    def test_stalled_power_method_exits_3(self, tmp_path, capsys, monkeypatch):
        from tensordec import power_method

        monkeypatch.setattr(power_method, "_MAX_ITERS", 1)
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "6,6,6", "--rank", "3",
                           "--model", "orthogonal-symmetric", "--seed", "1")
        code, out = run(tmp_path / "d", "decompose",
                        "--input", str(synth_out / "tensor.tnsr"),
                        "--method", "power", "--rank", "3")
        assert code == 3
        err = capsys.readouterr().err
        assert "did not settle in 1 steps" in err and "last_step" in err
        assert not out.exists()

    def test_power_requires_rank(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "4,4,4",
                           "--rank", "2", "--seed", "10")
        code, out = run(tmp_path / "d", "decompose",
                        "--input", str(synth_out / "tensor.tnsr"),
                        "--method", "power")
        assert code == 4
        assert not out.exists()

    def test_missing_input_no_partial_outputs(self, tmp_path):
        code, out = run(tmp_path, "decompose", "--input",
                        str(tmp_path / "nothing.tnsr"))
        assert code == 2
        assert not out.exists()

    def test_oversized_shape_exit_code(self, tmp_path):
        big = tmp_path / "big.tnsr"
        big.write_bytes(b'{"order": 2, "shape": [4294967296, 4294967296]}\n')
        code, out = run(tmp_path, "decompose", "--input", str(big))
        assert code == 2
        assert not out.exists()

    def test_order_zero_input_exit_code(self, tmp_path):
        scalar = tmp_path / "scalar.tnsr"
        scalar.write_bytes(b'{"order": 0, "shape": []}\n' + b"\x00" * 8)
        code, out = run(tmp_path, "decompose", "--input", str(scalar))
        assert code == 2
        assert not out.exists()

    def test_boolean_shape_entry_exit_code(self, tmp_path, capsys):
        # JSON true is a bool, and bool passes for an int unless excluded
        flag = tmp_path / "bool.tnsr"
        flag.write_bytes(b'{"order": 1, "shape": [true]}\n' + b"\x00" * 8)
        code, out = run(tmp_path, "decompose", "--input", str(flag))
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_input_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tnsr"
        bad.write_bytes(b"not a tensor at all")
        code, out = run(tmp_path, "decompose", "--input", str(bad))
        assert code == 2
        assert not out.exists()

    def test_degenerate_tensor_exit_code(self, tmp_path):
        # two terms sharing one mode-3 direction: eigenvalue pairing
        # cannot separate them
        rng = np.random.default_rng(11)
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((6, 2))
        w = np.column_stack([rng.standard_normal(6)] * 2)
        t = synthesize(CpDecomposition([u, v, w], [1.0, 1.0]))
        (tmp_path / "degenerate.tnsr").write_bytes(tnsr_bytes(t))
        code, out = run(tmp_path, "decompose",
                        "--input", str(tmp_path / "degenerate.tnsr"),
                        "--rank", "2")
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("rank", ["1", "auto"])
    def test_rank_one_report_is_strict_json(self, tmp_path, rank):
        # one eigenvalue has no gap to another, so the report omits the gap
        _, synth = run(tmp_path / "s", "synth", "--shape", "8,8,8", "--rank", "1",
                       "--seed", "4")
        code, out = run(tmp_path / "d", "decompose", "--input", str(synth / "tensor.tnsr"),
                        "--rank", rank, "--truth", str(synth / "truth.json"))
        assert code == 0
        report = read_strict_json(out / "report.json")
        assert "eigenvalue_min_gap" not in report
        assert len(report["condition_numbers"]) == 3
        assert report["max_error"] < 1e-10

    def test_rank_deficient_slices_exit_3_naming_both_ranks(self, tmp_path, capsys):
        # every draw's M_b of a rank-3 tensor has rank 3 < 5, so no
        # eigenvalue is ever computed: the run says which ranks disagreed
        code, synth = run(tmp_path, "synth", "--shape", "6,6,6", "--rank", "3",
                          "--seed", "1")
        assert code == 0
        capsys.readouterr()
        code, out = run(tmp_path, "decompose", "--input", str(synth / "tensor.tnsr"),
                        "--rank", "5")
        assert code == 3
        err = capsys.readouterr().err
        assert "has rank 3, below the requested rank 5" in err
        assert "'stage': 'rank'" in err
        assert not out.exists()


class TestEval:
    def test_matches_decompose_report(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "6,6,6",
                           "--rank", "4", "--seed", "12")
        _, dec_out = run(tmp_path / "d", "decompose",
                         "--input", str(synth_out / "tensor.tnsr"),
                         "--truth", str(synth_out / "truth.json"))
        code, eval_out = run(
            tmp_path / "e", "eval",
            "--found", str(dec_out / "decomposition.json"),
            "--truth", str(synth_out / "truth.json"),
            "--tensor", str(synth_out / "tensor.tnsr"),
        )
        assert code == 0
        via_eval = read_json(eval_out / "report.json")
        via_decompose = read_json(dec_out / "report.json")
        assert via_eval["max_error"] == pytest.approx(
            via_decompose["max_error"], rel=1e-9
        )
        # eval conditions the found factors, as the decomposer did
        assert via_eval["condition_numbers"] == pytest.approx(
            via_decompose["condition_numbers"], rel=1e-9
        )

    def test_singular_factor_writes_a_null_condition_number(self, tmp_path):
        # two equal columns: kappa is inf, which JSON cannot hold
        twin = CpDecomposition([np.array([[1.0, 1.0], [0.0, 0.0]]), np.eye(2), np.eye(2)],
                               [2.0, 1.0])
        path = tmp_path / "twin.json"
        path.write_text(json.dumps(decomposition_to_dict(twin)))
        code, out = run(tmp_path, "eval", "--found", str(path), "--truth", str(path))
        assert code == 0
        report = read_strict_json(out / "report.json")
        assert report["condition_numbers"] == [None, 1.0, 1.0]
        assert report["max_error"] == 0.0

    def test_tensor_of_another_shape_exits_4(self, tmp_path, capsys):
        _, big = run(tmp_path / "a", "synth", "--shape", "6,6,6", "--rank", "3",
                     "--seed", "1")
        _, small = run(tmp_path / "b", "synth", "--shape", "5,5,5", "--rank", "2",
                       "--seed", "2")
        _, dec = run(tmp_path / "d", "decompose", "--input", str(big / "tensor.tnsr"))
        code, out = run(tmp_path / "e", "eval",
                        "--found", str(dec / "decomposition.json"),
                        "--truth", str(big / "truth.json"),
                        "--tensor", str(small / "tensor.tnsr"))
        assert code == 4
        assert "--tensor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header", [b'{"order": 1, "shape": [true]}',
                                        b'{"order": true, "shape": [1]}'],
                             ids=["shape", "order"])
    def test_boolean_tensor_header_exits_2(self, tmp_path, capsys, header):
        truth = tmp_path / "truth.json"
        one_term = CpDecomposition([np.ones((1, 1))], [1.0])
        truth.write_text(json.dumps(decomposition_to_dict(one_term)))
        (tmp_path / "bool.tnsr").write_bytes(header + b"\n" + b"\x00" * 8)
        code, out = run(tmp_path, "eval", "--found", str(truth), "--truth", str(truth),
                        "--tensor", str(tmp_path / "bool.tnsr"))
        assert code == 2
        assert "inconsistent order/shape" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "found",
        [
            b'{"order": 1, "rank": 1, "weights": [1.0], "factors": 5}',
            b'{"order": 1, "rank": 2, "weights": [1.0, 1.0], '
            b'"factors": [[[1.0, 0.0], [1.0]]]}',
            b'{"order": 1, "rank": 0, "weights": [], "factors": [[]], "shape": ["x"]}',
            b'{"order": 1, "rank": 0, "weights": [], "factors": [[]], "shape": [-1]}',
            b'{"order": 1, "rank": 1, "weights": ["a"], "factors": [[[1.0]]]}',
            b'{"order": 1, "rank": \xff}',
            b'{"order": true, "rank": 1, "weights": [1.0], "factors": [[[1.0]]]}',
            b'{"order": 1, "rank": true, "weights": [1.0], "factors": [[[1.0]]]}',
            b'{"order": 1, "rank": 1, "weights": [1.0], "factors": [[[1.0]]], '
            b'"shape": [true]}',
            b'{"order": 1.0, "rank": 1, "weights": [1.0], "factors": [[[1.0]]]}',
            b'{"order": 1, "rank": 1.0, "weights": [1.0], "factors": [[[1.0]]]}',
            b'{"order": 1, "rank": 1, "weights": [1.0], "factors": [[[1.0]]], '
            b'"shape": [1.5]}',
        ],
        ids=["factors-int", "ragged-columns", "shape-text", "shape-negative",
             "weights-text", "invalid-utf8", "order-bool", "rank-bool", "shape-bool",
             "order-float", "rank-float", "shape-float"],
    )
    def test_malformed_decomposition_exits_2(self, tmp_path, capsys, found):
        (tmp_path / "found.json").write_bytes(found)
        truth = CpDecomposition([np.eye(1)], [1.0])
        (tmp_path / "truth.json").write_text(json.dumps(decomposition_to_dict(truth)))
        code, out = run(tmp_path, "eval", "--found", str(tmp_path / "found.json"),
                        "--truth", str(tmp_path / "truth.json"))
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("weight", [1e200, 1e160, -1e160])
    def test_large_weight_matches_itself(self, tmp_path, weight):
        # squared term norms past float64 must not turn the costs into NaN
        term = CpDecomposition([np.array([[1.0], [0.0]]), np.array([[0.6], [0.8]])],
                               [weight])
        path = tmp_path / "w.json"
        path.write_text(json.dumps(decomposition_to_dict(term)))
        code, out = run(tmp_path, "eval", "--found", str(path), "--truth", str(path))
        assert code == 0
        assert read_json(out / "report.json")["max_error"] == 0.0


    def test_huge_distinct_weights_give_a_finite_error(self, tmp_path):
        # the dense pair norm is taken over a power of two, so 1e160 terms do
        # not square to inf and report.json stays valid JSON
        factors = [np.array([[1.0], [0.0]]), np.array([[0.6], [0.8]])]
        for name, weight in (("found", 1e160), ("truth", 2e160)):
            term = CpDecomposition(factors, [weight])
            (tmp_path / f"{name}.json").write_text(json.dumps(decomposition_to_dict(term)))
        code, out = run(tmp_path, "eval", "--found", str(tmp_path / "found.json"),
                        "--truth", str(tmp_path / "truth.json"))
        assert code == 0
        text = (out / "report.json").read_text()
        report = json.loads(text, parse_constant=pytest.fail)
        assert report["max_error"] == pytest.approx(1e160, rel=1e-12)


class TestLearn:
    def test_gmm_acceptance_flavor(self, tmp_path):
        code, out = run(tmp_path, "learn", "gmm", "--k", "3", "--n", "8",
                        "--samples", "500000", "--seed", "7")
        assert code == 0
        payload = read_json(out / "means.json")
        assert payload["max_mean_error"] <= 0.25
        assert len(payload["estimated_means"]) == 3
        assert payload["weights"] == pytest.approx([1 / 3] * 3)

    def test_gmm_thread_count_does_not_change_bytes(self, tmp_path):
        base = ["learn", "gmm", "--k", "2", "--n", "6", "--samples", "250000",
                "--seed", "13"]
        _, one = run(tmp_path / "t1", *base, "--threads", "1")
        _, four = run(tmp_path / "t4", *base, "--threads", "4")
        assert (one / "means.json").read_bytes() == (four / "means.json").read_bytes()

    def test_gmm_jennrich_thread_count_does_not_change_bytes(self, tmp_path):
        base = ["learn", "gmm", "--k", "3", "--n", "8", "--samples", "250000",
                "--seed", "13", "--method", "jennrich"]
        code1, one = run(tmp_path / "t1", *base, "--threads", "1")
        code2, two = run(tmp_path / "t2", *base, "--threads", "2")
        assert code1 == code2 == 0
        assert (one / "means.json").read_bytes() == (two / "means.json").read_bytes()
        assert read_json(one / "means.json")["max_mean_error"] <= 0.25

    def test_gmm_dump_samples(self, tmp_path):
        code, out = run(tmp_path, "learn", "gmm", "--k", "2", "--n", "4",
                        "--samples", "1000", "--seed", "14", "--dump-samples")
        assert code == 0
        samples = read_tnsr(str(out / "samples.tnsr"))
        assert samples.shape == (1000, 4)

    def test_hmm_dump_samples(self, tmp_path):
        code, out = run(tmp_path, "learn", "hmm", "--k", "2", "--n", "3",
                        "--samples", "500", "--window", "5", "--noise", "0.1",
                        "--seed", "21", "--dump-samples")
        assert code == 0
        samples = read_tnsr(str(out / "samples.tnsr"))
        assert samples.shape == (500, 5, 3)
        params = hmm_random_params(3, 2, seed=21, noise_scale=0.1)
        np.testing.assert_array_equal(samples.data, hmm_sample(params, 500, window=5, seed=21))

    def test_hmm_single_state_report_is_strict_json(self, tmp_path):
        code, out = run(tmp_path, "learn", "hmm", "--k", "1", "--n", "4",
                        "--samples", "20000")
        assert code == 0
        report = read_strict_json(out / "params.json")["report"]
        assert "eigenvalue_min_gap" not in report

    def test_hmm_run(self, tmp_path):
        code, out = run(tmp_path, "learn", "hmm", "--k", "3", "--n", "6",
                        "--samples", "200000", "--seed", "15", "--noise", "0.1")
        assert code == 0
        payload = read_json(out / "params.json")
        assert payload["window"] == 3
        assert max(payload["observation_errors"]) < 0.2
        assert payload["estimated_transition"] is not None
        cols = np.array(payload["estimated_transition"]).T
        assert np.allclose(cols.sum(axis=0), 1.0, atol=1e-9)

    def test_gmm_zero_components_exits_4(self, tmp_path, capsys):
        code, out = run(tmp_path, "learn", "gmm", "--k", "0", "--n", "8",
                        "--samples", "100")
        assert code == 4
        assert "1 <= k <= n, got k=0, n=8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("norm", ["0", "-5", "nan"])
    def test_gmm_unusable_norm_exits_4(self, tmp_path, capsys, norm):
        # a zero norm makes every mean zero, a negative one flips the frame
        code, out = run(tmp_path, "learn", "gmm", "--k", "2", "--n", "4",
                        "--samples", "100", "--norm", norm)
        assert code == 4
        assert f"norm must be positive and finite, got {float(norm)}" in capsys.readouterr().err
        assert not out.exists()

    def test_hmm_nan_noise_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(tmp_path, "learn", "hmm", "--k", "2", "--n", "3",
                "--samples", "1000", "--noise", "nan")
        assert exc_info.value.code == 2
        assert "--noise" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestLab:
    def test_kr_sigma_csv_shape(self, tmp_path):
        code, out = run(tmp_path, "lab", "kr-sigma", "--n", "8", "--k", "32",
                        "--l", "2", "--trials", "500", "--seed", "16")
        assert code == 0
        lines = (out / "trials.csv").read_text().strip().split("\n")
        assert lines[0] == "trial,value"
        assert len(lines) == 501
        summary = read_json(out / "summary.json")
        assert summary["trials"] == 500
        assert summary["delta"] == pytest.approx(0.5)

    def test_kr_sigma_thread_determinism(self, tmp_path):
        base = ["lab", "kr-sigma", "--n", "4", "--k", "8", "--l", "2",
                "--trials", "64", "--seed", "17"]
        _, one = run(tmp_path / "t1", *base, "--threads", "1")
        _, four = run(tmp_path / "t4", *base, "--threads", "4")
        for name in ("trials.csv", "summary.json"):
            assert (one / name).read_bytes() == (four / name).read_bytes()

    def test_projection_run(self, tmp_path):
        code, out = run(tmp_path, "lab", "projection", "--n", "16", "--l", "1",
                        "--delta", "0.5", "--trials", "200", "--seed", "18")
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["subspace_dim"] == 8

    @pytest.mark.parametrize(
        "argv",
        [
            ["kr-sigma", "--n", "4", "--k", "4", "--l", "2", "--rho", "inf"],
            ["kr-sigma", "--n", "4", "--k", "4", "--l", "2", "--rho", "nan"],
            ["projection", "--n", "4", "--l", "1", "--delta", "0.5", "--rho", "inf"],
            ["projection", "--n", "4", "--l", "1", "--delta", "nan"],
        ],
        ids=["kr-sigma-rho-inf", "kr-sigma-rho-nan", "projection-rho-inf",
             "projection-delta-nan"],
    )
    def test_non_finite_parameters_exit_4(self, tmp_path, argv):
        code, out = run(tmp_path, "lab", *argv, "--trials", "3")
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["kr-sigma", "--n", "4", "--k", "4", "--l", "2", "--rho", "1e300"],
            ["projection", "--n", "32", "--l", "1", "--delta", "1e308"],
            ["projection", "--n", "4", "--l", "2", "--delta", "0.5", "--rho", "1e300"],
            ["projection", "--n", str(10**155), "--l", "2", "--delta", "0.5"],
            ["projection", "--n", str(10**155), "--l", "2", "--delta", "0.5",
             "--rho", "1e150"],
        ],
        ids=["kr-sigma-rho", "projection-delta", "projection-rho",
             "projection-huge-n", "projection-huge-n-rho"],
    )
    def test_overflowing_parameters_exit_4(self, tmp_path, argv):
        # finite flags whose power overflows float64
        code, out = run(tmp_path, "lab", *argv, "--trials", "3")
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["kr-sigma", "--n", "4", "--k", "2", "--l", "2", "--rho", "1e-170"],
            ["projection", "--n", "4", "--l", "1", "--delta", "0.5", "--rho", "1e-320"],
        ],
        ids=["kr-sigma", "projection"],
    )
    def test_underflowing_threshold_scale_exits_4(self, tmp_path, capsys, argv):
        # rho^l / n^l below the least normal float64: the trials would all
        # read 0 against a threshold that means nothing
        code, out = run(tmp_path, "lab", *argv, "--trials", "3")
        assert code == 4
        assert "underflows" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_normal_threshold_scale_runs(self, tmp_path):
        code, out = run(tmp_path, "lab", "kr-sigma", "--n", "4", "--k", "2", "--l", "2",
                        "--rho", "1e-150", "--trials", "3")
        assert code == 0
        assert read_json(out / "summary.json")["threshold_scale"] == pytest.approx(6.25e-302)

    def test_overflowing_trials_exit_4(self, tmp_path):
        # rho^2 fits in float64, but the perturbed rank-one tensors do not;
        # the finiteness check reports it, with no numpy warning, also when
        # a pool thread runs the trials
        for threads in ("1", "2"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out = run(tmp_path / threads, "lab", "projection",
                                "--n", "4", "--l", "2", "--delta", "0.5",
                                "--rho", "1e154", "--trials", "3",
                                "--threads", threads)
            assert code == 4
            assert not out.exists()
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_kr_sigma_trials_exit_4(self, tmp_path, threads):
        # rho^2 = 1e308 fits, the 1x1 chains overflow to inf; the stacked SVD
        # of the block must not warn either, so warnings are errors here
        src = os.path.dirname(os.path.dirname(os.path.abspath(smoothed_lab.__file__)))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tensordec.cli", "lab", "kr-sigma",
             "--n", "1", "--k", "1", "--l", "2", "--rho", "1e154", "--trials", "40",
             "--threads", threads, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert "overflows" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not out.exists()

    def test_kr_chain_over_budget_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(smoothed_lab, "_ELEMENT_BUDGET", 256)
        code, out = run(tmp_path, "lab", "kr-sigma", "--n", "4", "--k", "5",
                        "--l", "3", "--trials", "3")
        assert code == 4
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["1e-200", "1e-320"])
    def test_projection_huge_n_finite_product_over_budget_exits_4(self, tmp_path, capsys,
                                                                   delta):
        # delta * n^2 is finite (1e110 or 1e-10), but n^2 alone is over the
        # basis budget
        code, out = run(tmp_path, "lab", "projection", "--n", str(10**155), "--l", "2",
                        "--delta", delta, "--rho", "1e150", "--trials", "1")
        assert code == 4
        assert "projection basis" in capsys.readouterr().err
        assert not out.exists()

    _HUGE = "1" + "0" * 2200

    @pytest.mark.parametrize(
        "argv",
        [
            ["kr-sigma", "--n", _HUGE, "--k", "2", "--l", "2"],
            ["pivot", "--l", "2", "--n", _HUGE, "--dim", "1"],
            ["pivot", "--l", "2", "--n", _HUGE, "--dim", "0"],
            ["projection", "--n", str(10**155), "--l", "2", "--delta", "1e-200",
             "--rho", "1e150"],
            ["projection", "--n", str(10**155), "--l", "2", "--delta", "0.5",
             "--rho", "1e150"],
        ],
        ids=["kr-sigma", "pivot-dim-1", "pivot-dim-0", "projection-budget",
             "projection-finite"],
    )
    def test_huge_integers_exit_4_with_a_short_line(self, tmp_path, capsys, argv):
        # n^l is far past 4300 digits or too long to read: the message gives
        # its power of ten instead
        trials = [] if argv[0] == "pivot" else ["--trials", "1"]
        code, out = run(tmp_path, "lab", *argv, *trials)
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 120
        assert "about 10^" in err
        assert not out.exists()

    @pytest.mark.parametrize("nk, trials", [("4", "3"), ("1", "1")], ids=["n4-k4", "n1-k1"])
    def test_huge_kr_sigma_order_exits_4_at_once(self, tmp_path, nk, trials):
        # order * n * k is bounded before n^order is formed: at n = 4 that
        # power has 2 * 10^20 bits, at n = 1 the chain has 10^20 factors
        src = os.path.dirname(os.path.dirname(os.path.abspath(smoothed_lab.__file__)))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "tensordec.cli", "lab", "kr-sigma", "--n", nk,
             "--k", nk, "--l", str(10**20), "--trials", trials, "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 120
        assert "order * n * k" in proc.stderr and "about 10^" in proc.stderr
        assert not out.exists()

    def test_projection_basis_over_budget_exits_4(self, tmp_path):
        # a (10^10, 5 * 10^9) basis: rejected before anything is allocated
        tracemalloc.start()
        try:
            code, out = run(tmp_path, "lab", "projection", "--n", "100000", "--l", "2",
                            "--delta", "0.5", "--trials", "1")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert not out.exists()
        assert peak < 2**20

    def test_pivot_invariants_pass(self, tmp_path):
        code, out = run(tmp_path, "lab", "pivot", "--n", "32", "--dim", "8",
                        "--seed", "19")
        assert code == 0
        payload = read_json(out / "pivot.json")
        assert payload["invariants_pass"] is True
        assert payload["count"] == 8
        assert payload["max_violation"] <= 1e-10

    def test_pivot_l2(self, tmp_path):
        code, out = run(tmp_path, "lab", "pivot", "--n", "8", "--dim", "16",
                        "--l", "2", "--seed", "20")
        assert code == 0
        payload = read_json(out / "pivot.json")
        assert payload["invariants_pass"] is True
        assert sum(payload["row_counts"]) == payload["count"]

    def test_pivot_basis_over_budget_exits_4(self, tmp_path, capsys):
        # a (4096, 2000) basis is 8.2M entries, past the 2^22 budget: rejected
        # before the Gaussian draw
        tracemalloc.start()
        try:
            code, out = run(tmp_path, "lab", "pivot", "--n", "64", "--l", "2",
                            "--dim", "2000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert "pivot basis" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 2**20

    @pytest.mark.parametrize("order", ["1", "2"])
    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_pivot_nonpositive_n_exits_4(self, tmp_path, capsys, order, n):
        # at order 2, n^2 passes the --dim range check
        code, out = run(tmp_path, "lab", "pivot", "--l", order, "--n", n, "--dim", "2")
        assert code == 4
        assert "--n" in capsys.readouterr().err
        assert not out.exists()


class TestOutOfMemory:
    # neither run touches its memory: synth refuses a 1e21-byte dense tensor
    # against physical memory, and learn gmm asks for a (1e13, 3) sample array
    # (218 TiB), past the user address space of a 64-bit machine, so the
    # allocation fails at once
    @pytest.mark.parametrize("argv", [
        ["synth", "--shape", "5000000,5000000,5000000", "--rank", "1"],
        ["learn", "gmm", "--k", "2", "--n", "3", "--samples", "10000000000000"],
    ], ids=["synth", "learn-gmm"])
    def test_impossible_allocation_exits_4(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 4
        assert "does not fit in memory" in capsys.readouterr().err
        assert not out.exists()


    _PAST_INT64 = str(10**20)

    @pytest.mark.parametrize("argv", [
        ["synth", "--shape", "4,4,4,4,4", "--model", "smoothed", "--rank", _PAST_INT64],
        ["learn", "gmm", "--k", "3", "--n", _PAST_INT64, "--samples", "100"],
        ["learn", "gmm", "--k", "3", "--n", "8", "--samples", _PAST_INT64],
        ["learn", "hmm", "--k", "3", "--n", _PAST_INT64, "--samples", "100"],
        ["learn", "hmm", "--k", "3", "--n", "6", "--samples", _PAST_INT64],
        ["learn", "hmm", "--k", "2", "--n", "3", "--samples", "10", "--window", _PAST_INT64],
        ["lab", "kr-sigma", "--n", "4", "--k", "4", "--l", "2", "--trials", _PAST_INT64],
        ["lab", "projection", "--n", "4", "--l", "1", "--delta", "0.5",
         "--trials", _PAST_INT64],
    ], ids=["synth-rank", "gmm-n", "gmm-samples", "hmm-n", "hmm-samples", "hmm-window",
            "kr-sigma-trials", "projection-trials"])
    def test_count_past_int64_exits_4(self, tmp_path, capsys, argv):
        # no array dimension can exceed 2^63 - 1: the count is refused where
        # it enters, before numpy is asked for the array
        code, out = run(tmp_path, *argv)
        assert code == 4
        err = capsys.readouterr().err
        assert "does not fit in memory" in err and "about 10^20" in err
        assert not out.exists()


class TestIgnoredFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["decompose", "--method", "jennrich", "--groups", "1/2/3"], "--groups"),
            (["decompose", "--method", "flatten-jennrich", "--whiten", "m.tnsr"],
             "--whiten"),
            (["decompose", "--method", "jennrich", "--whiten", "m.tnsr"], "--whiten"),
            (["decompose", "--method", "power", "--rank", "2", "--groups", "1/2/3"],
             "--groups"),
            (["synth", "--shape", "4,4,4", "--rank", "2", "--model", "exact",
              "--rho", "7"], "--rho"),
            (["synth", "--shape", "4,4,4", "--rank", "2", "--rho", "0.5"], "--rho"),
            (["synth", "--shape", "4,4,4", "--rank", "2", "--model", "orthogonal-symmetric",
              "--rho", "0.5"], "--rho"),
        ],
    )
    def test_flag_the_method_does_not_use_exits_4(self, tmp_path, capsys, argv, flag):
        _, synth = run(tmp_path / "s", "synth", "--shape", "4,4,4", "--rank", "2")
        argv = [str(synth / "tensor.tnsr") if a == "m.tnsr" else a for a in argv]
        if argv[0] == "decompose":
            argv[1:1] = ["--input", str(synth / "tensor.tnsr")]
        code, out = run(tmp_path, *argv)
        assert code == 4
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_smoothed_model_defaults_rho_to_one_half(self, tmp_path):
        args = ["synth", "--shape", "4,4,4", "--rank", "3", "--model", "smoothed"]
        _, implicit = run(tmp_path / "a", *args)
        _, explicit = run(tmp_path / "b", *args, "--rho", "0.5")
        assert (implicit / "truth.json").read_bytes() == (
            explicit / "truth.json"
        ).read_bytes()
        assert read_json(implicit / "manifest.json")["flags"]["rho"] is None


class TestManifest:
    def test_digests_match_written_files(self, tmp_path):
        code, out = run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "2",
                        "--seed", "21")
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 21
        assert manifest["version"] == __version__
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
            assert actual == digest
        assert manifest["flags"]["shape"] == "4,4,4"
        assert manifest["wall_time_s"] >= 0

    def test_inputs_recorded(self, tmp_path):
        _, synth_out = run(tmp_path / "s", "synth", "--shape", "4,4,4",
                           "--rank", "2", "--seed", "22")
        tensor_path = str(synth_out / "tensor.tnsr")
        code, out = run(tmp_path / "d", "decompose", "--input", tensor_path)
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert tensor_path in manifest["inputs"]
        expected = hashlib.sha256((synth_out / "tensor.tnsr").read_bytes()).hexdigest()
        assert manifest["inputs"][tensor_path] == expected


class TestSeedResolution:
    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TENSORDEC_SEED", "23")
        _, from_env = run(tmp_path / "env", "synth", "--shape", "4,4,4",
                          "--rank", "2")
        monkeypatch.delenv("TENSORDEC_SEED")
        _, explicit = run(tmp_path / "flag", "synth", "--shape", "4,4,4",
                          "--rank", "2", "--seed", "23")
        assert (from_env / "tensor.tnsr").read_bytes() == \
            (explicit / "tensor.tnsr").read_bytes()
        assert read_json(from_env / "manifest.json")["seed"] == 23

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TENSORDEC_SEED", "99")
        code, out = run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "2",
                        "--seed", "24")
        assert code == 0
        assert read_json(out / "manifest.json")["seed"] == 24

    @pytest.mark.parametrize(
        "flag, env",
        [("-1", None), ("abc", None), ("2.5", None), (None, "-1"), (None, "abc")],
        ids=["flag-negative", "flag-text", "flag-float", "env-negative", "env-text"],
    )
    def test_bad_seed_exits_2(self, tmp_path, monkeypatch, capsys, flag, env):
        if env is None:
            monkeypatch.delenv("TENSORDEC_SEED", raising=False)
        else:
            monkeypatch.setenv("TENSORDEC_SEED", env)
        seed = ["--seed", flag] if flag is not None else []
        with pytest.raises(SystemExit) as exc_info:
            run(tmp_path, "synth", "--shape", "4,4,4", "--rank", "2", *seed)
        assert exc_info.value.code == 2
        assert ("--seed" if flag is not None else "TENSORDEC_SEED") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestParser:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["transmogrify"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc_info:
            run(tmp_path, "lab", "kr-sigma", "--n", "4", "--k", "4", "--l", "2",
                "--trials", "2", "--threads", threads)
        assert exc_info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("rank", ["abc", "2.5", "-1"])
    def test_bad_rank_exits_2(self, tmp_path, capsys, rank):
        tensor = tmp_path / "t.tnsr"
        tensor.write_bytes(tnsr_bytes(synthesize(CpDecomposition([np.eye(2)] * 3, [1.0, 1.0]))))
        with pytest.raises(SystemExit) as exc_info:
            run(tmp_path, "decompose", "--input", str(tensor), "--rank", rank)
        assert exc_info.value.code == 2
        assert "--rank" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["--version"])
        assert exc_info.value.code == 0
        assert __version__ in capsys.readouterr().out
