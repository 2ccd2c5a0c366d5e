"""Command line front end.

Subcommands: synth (generate an instance), decompose (run a decomposition
method on a TNSR file), eval (match a found decomposition against truth),
learn gmm / learn hmm (sample a synthetic model and recover its
parameters), and lab kr-sigma / projection / pivot (the Monte Carlo
experiments). Every run writes its primary outputs plus a manifest with
input/output digests. Primary outputs are byte-identical for a fixed seed
regardless of --threads; the manifest differs only in wall time.

Exit codes: 2 for unreadable inputs and bad flags, 3 for degenerate
numerical situations (retries exhausted), 4 for violated preconditions
and for a run whose arrays do not fit in memory.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._version import __version__
from .errors import DegeneracyError, FormatError, PreconditionError
from .jennrich import JennrichConfig, RecoveryReport, jennrich_decompose, match_terms
from .moment_learners import gmm_learn, gmm_sample, hmm_learn, hmm_sample
from .overcomplete import FlatteningPlan, overcomplete_decompose
from .power_method import PowerConfig, _symmetrize, deflate_decompose, whiten
from .seeding import TAG_LAB, TAG_NOISE, derive_rng
from .smoothed_lab import (
    _check_budget,
    build_pivot_basis,
    build_pivot_basis_l2,
    kr_sigma_experiment,
    projection_experiment,
)
from .synthetic import (
    gmm_orthogonal_params,
    hmm_random_params,
    random_decomposition,
    random_orthogonal_symmetric,
    smoothed_decomposition,
)
from .tensor_core import (
    CpDecomposition,
    DenseTensor,
    decomposition_to_dict,
    frobenius_norm,
    read_decomposition,
    read_tnsr,
    synthesize,
    tnsr_bytes,
)


def _json_bytes(obj):
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _trials_csv(values):
    lines = ["trial,value"]
    lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _columns(mat):
    mat = np.asarray(mat)
    return [[float(x) for x in mat[:, i]] for i in range(mat.shape[1])]


def _parse_shape(text):
    try:
        shape = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise PreconditionError(f"bad shape {text!r}: {exc}") from exc
    if not shape or any(s < 1 for s in shape):
        raise PreconditionError(f"bad shape {text!r}: sizes must be positive")
    return shape


def _parse_groups(text, order):
    """Parse '1,2/3,4/5' (1-based modes, three slash-separated groups)."""
    parts = text.split("/")
    if len(parts) != 3:
        raise PreconditionError("--groups needs exactly three /-separated groups")
    groups = []
    for part in parts:
        try:
            modes = tuple(int(x) for x in part.split(","))
        except ValueError as exc:
            raise PreconditionError(f"bad group {part!r}: {exc}") from exc
        if min(modes) < 1:
            raise PreconditionError(f"--groups counts modes from 1, got {min(modes)}")
        groups.append(tuple(m - 1 for m in modes))
    try:
        return FlatteningPlan(order=order, groups=tuple(groups))
    except PreconditionError:
        raise PreconditionError(f"--groups {text} does not partition modes 1 to {order}") from None


def _resolve_seed(args, parser):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("TENSORDEC_SEED")
    if not env:
        return 0
    try:
        return _nonnegative_int(env)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(f"TENSORDEC_SEED={env!r}: {exc}")


def _sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _report_dict(report, tensor=None):
    out = report.to_dict()
    if tensor is not None and report.max_error is not None:
        norm = frobenius_norm(tensor)
        if norm > 0:
            out["max_error_relative"] = report.max_error / norm
    return out


# ---------------------------------------------------------------------------
# Subcommand handlers. Each returns (outputs: {filename: bytes}, inputs: [path]).

def cmd_synth(args, seed, mapper):
    if not math.isfinite(2 * args.noise):
        raise PreconditionError(f"--noise {args.noise}: the range 2*noise is not finite")
    shape = _parse_shape(args.shape)
    need = 8 * math.prod(shape)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > physical:
        # checked before any factor is drawn: the factors alone can be large
        raise MemoryError(f"a dense {shape} tensor needs {need} bytes, "
                          f"more than the {physical} of physical memory")
    if args.rho is not None and args.model != "smoothed":
        raise PreconditionError("--rho needs --model smoothed")
    if args.model == "exact":
        d = random_decomposition(shape, args.rank, seed=seed)
    elif args.model == "smoothed":
        rho = 0.5 if args.rho is None else args.rho
        d = smoothed_decomposition(shape, args.rank, rho=rho, seed=seed)
    else:
        if len(shape) != 3 or len(set(shape)) != 1:
            raise PreconditionError(
                f"--model orthogonal-symmetric needs a cubic order-3 shape, got {shape}"
            )
        d = random_orthogonal_symmetric(shape[0], args.rank, seed=seed)
    tensor = synthesize(d)
    if args.noise > 0:
        rng = derive_rng(seed, TAG_NOISE, 0)
        noise = rng.uniform(-args.noise, args.noise, tensor.shape)
        if args.model == "orthogonal-symmetric":
            # the power method takes only symmetric tensors
            noise = _symmetrize(noise)
        tensor = DenseTensor(tensor.data + noise)
    outputs = {
        "truth.json": _json_bytes(decomposition_to_dict(d)),
        "tensor.tnsr": tnsr_bytes(tensor),
    }
    return outputs, []


def cmd_decompose(args, seed, mapper):
    if args.groups and args.method != "flatten-jennrich":
        raise PreconditionError("--groups needs --method flatten-jennrich")
    if args.whiten and args.method != "power":
        raise PreconditionError("--whiten needs --method power")
    tensor = read_tnsr(args.input)
    inputs = [args.input]
    rank = args.rank
    cfg = JennrichConfig(rank=rank, seed=seed)

    if args.method == "jennrich":
        d, report = jennrich_decompose(tensor, cfg)
    elif args.method == "flatten-jennrich":
        plan = _parse_groups(args.groups, tensor.order) if args.groups else None
        d, report = overcomplete_decompose(tensor, plan=plan, config=cfg)
    elif args.method == "power":
        if rank == "auto":
            raise PreconditionError("--method power needs an explicit --rank")
        target, back = tensor, None
        if args.whiten:
            m_tensor = read_tnsr(args.whiten)
            inputs.append(args.whiten)
            if m_tensor.order != 2:
                raise PreconditionError("--whiten expects an order-2 tensor")
            target, back = whiten(tensor, m_tensor.data, rank)
        od, residual = deflate_decompose(target, rank, PowerConfig(seed=seed))
        vectors = od.vectors if back is None else back @ od.vectors
        d = CpDecomposition([vectors] * 3, od.lambdas)
        report = RecoveryReport(deflation_residual=residual)
    else:
        raise PreconditionError(f"unknown method {args.method!r}")

    if args.truth:
        truth = read_decomposition(args.truth)
        inputs.append(args.truth)
        matched = match_terms(d, truth)
        report.permutation = matched.permutation
        report.per_term_errors = matched.per_term_errors
        report.max_error = matched.max_error

    outputs = {
        "decomposition.json": _json_bytes(decomposition_to_dict(d)),
        "report.json": _json_bytes(_report_dict(report, tensor)),
    }
    return outputs, inputs


def cmd_eval(args, seed, mapper):
    found = read_decomposition(args.found)
    truth = read_decomposition(args.truth)
    inputs = [args.found, args.truth]
    report = match_terms(found, truth)
    tensor = None
    if args.tensor:
        tensor = read_tnsr(args.tensor)
        inputs.append(args.tensor)
        if tensor.shape != found.shape:
            raise PreconditionError(
                f"--tensor shape {tensor.shape} differs from the decompositions' "
                f"{found.shape}"
            )
    return {"report.json": _json_bytes(_report_dict(report, tensor))}, inputs


def cmd_learn_gmm(args, seed, mapper):
    params = gmm_orthogonal_params(args.n, args.k, norm=args.norm, seed=seed)
    samples = gmm_sample(params, args.samples, seed=seed, mapper=mapper)
    result = gmm_learn(samples, args.k, method=args.method, seed=seed, truth=params)
    payload = {
        "model": "gmm",
        "k": args.k,
        "n": args.n,
        "method": args.method,
        "sample_count": args.samples,
        "true_means": _columns(params.means),
        "estimated_means": _columns(result.means),
        "weights": [float(w) for w in result.weights],
        "permutation": result.permutation,
        "mean_errors": result.mean_errors,
        "max_mean_error": result.max_mean_error,
        "report": result.report.to_dict() if result.report else None,
    }
    outputs = {"means.json": _json_bytes(payload)}
    if args.dump_samples:
        outputs["samples.tnsr"] = tnsr_bytes(DenseTensor(samples))
    return outputs, []


def cmd_learn_hmm(args, seed, mapper):
    context = (args.window - 1) // 2
    params = hmm_random_params(args.n, args.k, seed=seed, noise_scale=args.noise)
    windows = hmm_sample(
        params, args.samples, window=args.window, seed=seed, mapper=mapper
    )
    result = hmm_learn(
        windows, args.k, context=context, seed=seed,
        noise_scale=args.noise, truth=params,
    )
    payload = {
        "model": "hmm",
        "k": args.k,
        "n": args.n,
        "window": args.window,
        "sample_count": args.samples,
        "noise_scale": args.noise,
        "true_observation_means": _columns(params.observation_means),
        "true_transition": _columns(params.transition),
        "true_stationary": [float(w) for w in params.stationary],
        "estimated_observation_means": _columns(result.observation_means),
        "estimated_transition": (
            _columns(result.transition) if result.transition is not None else None
        ),
        "estimated_stationary": [float(w) for w in result.stationary],
        "permutation": result.permutation,
        "observation_errors": result.observation_errors,
        "transition_errors": result.transition_errors,
        "stationary_errors": result.stationary_errors,
        "consistency": result.consistency,
        "report": result.report.to_dict() if result.report else None,
    }
    outputs = {"params.json": _json_bytes(payload)}
    if args.dump_samples:
        outputs["samples.tnsr"] = tnsr_bytes(DenseTensor(windows))
    return outputs, []


def _lab_outputs(result):
    """A lab experiment's per-trial values and the summary of their tail."""
    return {
        "trials.csv": _trials_csv(result.values),
        "summary.json": _json_bytes(result.summary()),
    }, []


def cmd_lab_kr_sigma(args, seed, mapper):
    return _lab_outputs(kr_sigma_experiment(
        args.n, args.k, args.order, args.rho, args.trials,
        base=args.base, seed=seed, mapper=mapper,
    ))


def cmd_lab_projection(args, seed, mapper):
    return _lab_outputs(projection_experiment(
        args.n, args.order, args.delta, args.rho, args.trials,
        subspace=args.subspace, base_point=args.base_point,
        seed=seed, mapper=mapper,
    ))


def cmd_lab_pivot(args, seed, mapper):
    n, dim = args.n, args.dim
    if n < 1:
        raise PreconditionError(f"--n must be at least 1, got {n}")
    ambient = n if args.order == 1 else n * n
    if not 1 <= dim <= ambient:
        raise PreconditionError(f"--dim must lie in [1, {ambient}]")
    _check_budget(ambient * dim, "a pivot basis (n^l * dim)")
    rng = derive_rng(seed, TAG_LAB, 0)
    basis, _ = np.linalg.qr(rng.standard_normal((ambient, dim)))
    if args.order == 1:
        pivot = build_pivot_basis(basis)
        payload = {"pivots": list(pivot.pivots), "vectors": _columns(pivot.vectors)}
    else:
        pivot = build_pivot_basis_l2(basis, n)
        payload = {
            "rounds": len(pivot.rounds),
            "rows": list(pivot.rows),
            "pivot_columns": [[p % n for p in r.pivots] for r in pivot.rounds],
            "row_counts": [r.count for r in pivot.rounds],
            "matrices": [_columns(r.vectors) for r in pivot.rounds],
        }
    payload.update(order=args.order, n=n, dim=dim, count=pivot.count,
                   max_violation=pivot.max_violation(),
                   invariants_pass=pivot.invariants_pass())
    return {"pivot.json": _json_bytes(payload)}, []


# ---------------------------------------------------------------------------
# Parser and driver.

def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _rank(text):
    if text == "auto":
        return text
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 'auto' or at least 0, got {value}")
    return value


def _nonnegative_float(text):
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {value}")
    return value


def _add_common(parser, threads=False):
    parser.add_argument("--seed", type=_nonnegative_int, default=None,
                        help="RNG seed (default: $TENSORDEC_SEED or 0)")
    parser.add_argument("--out", required=True, help="output directory")
    if threads:
        parser.add_argument("--threads", type=_positive_int, default=1,
                            help="worker threads for parallel trials/sampling")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tensordec",
        description="CP tensor decomposition toolkit: synthesis, recovery, "
        "moment-based learners, and random-matrix experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a random instance and its tensor")
    p.add_argument("--shape", required=True, help="comma-separated mode sizes")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--model", choices=["exact", "smoothed", "orthogonal-symmetric"],
                   default="exact",
                   help="orthogonal-symmetric: a cubic order-3 tensor with one shared "
                   "orthonormal factor, rank <= n (input for --method power)")
    p.add_argument("--rho", type=float, default=None,
                   help="perturbation scale for --model smoothed (default 0.5)")
    p.add_argument("--noise", type=_nonnegative_float, default=0.0,
                   help="entrywise uniform noise magnitude added to the tensor "
                   "(symmetrized for --model orthogonal-symmetric)")
    _add_common(p)
    p.set_defaults(func=cmd_synth, name="synth")

    p = sub.add_parser("decompose", help="decompose a TNSR tensor file")
    p.add_argument("--input", required=True, help="input .tnsr file")
    p.add_argument("--method",
                   choices=["jennrich", "flatten-jennrich", "power"],
                   default="jennrich")
    p.add_argument("--rank", type=_rank, default="auto",
                   help="target rank (nonnegative integer or 'auto')")
    p.add_argument("--groups", default=None,
                   help="flattening groups, 1-based, e.g. 1,2/3,4/5")
    p.add_argument("--whiten", default=None,
                   help="order-2 TNSR file for the power method's whitening")
    p.add_argument("--truth", default=None,
                   help="truth decomposition JSON for matched error reporting")
    _add_common(p)
    p.set_defaults(func=cmd_decompose, name="decompose")

    p = sub.add_parser("eval", help="match a found decomposition against truth")
    p.add_argument("--found", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--tensor", default=None,
                   help="optional TNSR file for relative error reporting")
    _add_common(p)
    p.set_defaults(func=cmd_eval, name="eval")

    learn = sub.add_parser("learn", help="sample a synthetic model and learn it")
    lsub = learn.add_subparsers(dest="model_kind", required=True)

    p = lsub.add_parser("gmm", help="uniform spherical mixture")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--method", choices=["jennrich", "power"], default="power")
    p.add_argument("--norm", type=float, default=5.0,
                   help="norm of the orthogonal true means")
    p.add_argument("--dump-samples", action="store_true")
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_learn_gmm, name="learn gmm")

    p = lsub.add_parser("hmm", help="hidden Markov chain with Gaussian noise")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--noise", type=_nonnegative_float, default=0.0,
                   help="observation noise scale")
    p.add_argument("--dump-samples", action="store_true")
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_learn_hmm, name="learn hmm")

    lab = sub.add_parser("lab", help="Monte Carlo random-matrix experiments")
    labsub = lab.add_subparsers(dest="experiment", required=True)

    p = labsub.add_parser("kr-sigma", help="least singular value of Khatri-Rao chains")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, dest="order", required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--base", choices=["zero", "adversarial-basis"], default="zero")
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_lab_kr_sigma, name="lab kr-sigma")

    p = labsub.add_parser("projection", help="projected perturbed rank-one norms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, dest="order", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--subspace", choices=["gaussian", "coordinate"],
                   default="gaussian")
    p.add_argument("--base-point", choices=["zero", "ones"], default="zero")
    _add_common(p, threads=True)
    p.set_defaults(func=cmd_lab_projection, name="lab projection")

    p = labsub.add_parser("pivot", help="pivot basis construction and check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--l", type=int, dest="order", choices=[1, 2], default=1)
    _add_common(p)
    p.set_defaults(func=cmd_lab_pivot, name="lab pivot")

    return parser


def _write_atomic(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _manifest(args, seed, inputs, outputs, wall_time):
    skip = {"func", "name", "command", "model_kind", "experiment"}
    flags = {
        key: value
        for key, value in vars(args).items()
        if key not in skip and not callable(value)
    }
    return {
        "subcommand": args.name,
        "flags": flags,
        "seed": seed,
        "version": __version__,
        "inputs": {path: _sha256_file(path) for path in inputs},
        "outputs": {name: _sha256_bytes(data) for name, data in outputs.items()},
        "wall_time_s": wall_time,
    }


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = _resolve_seed(args, parser)
    threads = getattr(args, "threads", 1)
    started = time.perf_counter()
    try:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                outputs, inputs = args.func(args, seed, pool.map)
        else:
            outputs, inputs = args.func(args, seed, map)
    except FormatError as exc:
        print(f"tensordec: input error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"tensordec: missing file: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"tensordec: degenerate run: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"tensordec: diagnostics: {exc.diagnostics}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"tensordec: precondition violated: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"tensordec: does not fit in memory: {exc}", file=sys.stderr)
        return 4

    os.makedirs(args.out, exist_ok=True)
    for name, data in outputs.items():
        _write_atomic(os.path.join(args.out, name), data)
    wall_time = time.perf_counter() - started
    manifest = _manifest(args, seed, inputs, outputs, wall_time)
    _write_atomic(os.path.join(args.out, "manifest.json"), _json_bytes(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
