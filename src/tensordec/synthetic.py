"""Seeded generators for the instances the tests and the CLI synthesize.

Every generator takes an explicit seed and is deterministic given it.
Well-conditioned instances come from lightly noised orthonormal frames
(condition numbers land around 1.5-3 without rejection); separation and
conditioning are then enforced by accept-reject against explicit bounds,
so callers get certified instances, not probabilistic ones.
"""

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .matrix_ops import condition_number
from .moment_learners import GmmParams, HmmParams, stationary_distribution
from .seeding import TAG_SYNTH, derive_rng
from .smoothed_lab import _check_rho, perturb_matrix
from .tensor_core import CpDecomposition

_MAX_DRAWS = 64
# Largest condition number of a random_decomposition factor.
_KAPPA_MAX = 10.0
# Smallest distance, up to sign, between two columns' unit directions.
_MIN_SEPARATION = 0.1
# Term weights are uniform in this range; orthogonal instances use _LAMBDA_RANGE.
_WEIGHT_RANGE = (0.5, 2.0)
_LAMBDA_RANGE = (1.0, 2.0)
# Smallest k-th singular value of a random chain's P and O.
_MIN_SIGMA = 0.2


def _unit_columns(mat):
    norms = np.linalg.norm(mat, axis=0)
    if np.any(norms == 0):
        raise DegeneracyError("drew a zero column")
    return mat / norms[None, :]


def _smoothed_columns(rng, n, k, rho):
    """Random unit columns, each coordinate then given N(0, rho^2/n) noise,
    renormalized. A rho that is not positive and finite, or whose perturbed
    column norms overflow float64, is a PreconditionError."""
    _check_rho(rho, 1)
    noised = perturb_matrix(_unit_columns(rng.standard_normal((n, k))), rho, rng)
    with np.errstate(over="ignore"):  # the finiteness check reports overflow
        norms = np.linalg.norm(noised, axis=0)
    if not np.all(np.isfinite(norms)):
        raise PreconditionError(f"rho={rho} overflows the perturbed column norms")
    return noised / norms[None, :]


def _orthonormal(rng, n, k):
    q, r = np.linalg.qr(rng.standard_normal((n, k)))
    return q * np.sign(np.diag(r))[None, :]


def direction_separation(mat):
    """Min over column pairs of the distance between unit directions,
    taken up to sign (antipodal columns count as unseparated). The closest
    pair has the largest |<u, v>|, as min(|u - v|, |u + v|)^2 = 2 - 2 |<u, v>|."""
    u = _unit_columns(np.asarray(mat, dtype=np.float64))
    k = u.shape[1]
    if k < 2:
        return np.inf
    rows, cols = np.triu_indices(k, 1)
    closest = np.argmax(np.abs(u.T @ u)[rows, cols])
    a, b = u[:, rows[closest]], u[:, cols[closest]]
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def random_decomposition(shape, rank, seed=0):
    """Random full-rank decomposition with certified conditioning.

    Each factor matrix is a random orthonormal frame plus 0.3 times a
    random unit-column matrix, renormalized; draws are rejected until
    every factor has condition number at most 10 and every
    factor's columns are 0.1-separated as directions. Weights are uniform
    in [0.5, 2]. Requires rank <= min(shape).
    """
    shape = tuple(int(s) for s in shape)
    rank = int(rank)
    if rank < 1:
        raise PreconditionError("rank must be positive")
    if rank > min(shape):
        raise PreconditionError(
            f"rank {rank} exceeds the smallest mode size {min(shape)}"
        )
    for attempt in range(_MAX_DRAWS):
        rng = derive_rng(seed, TAG_SYNTH, attempt)
        factors = []
        for n in shape:
            base = _orthonormal(rng, n, rank)
            bump = _unit_columns(rng.standard_normal((n, rank)))
            factors.append(_unit_columns(base + 0.3 * bump))
        ok = all(condition_number(f) <= _KAPPA_MAX for f in factors) and all(
            direction_separation(f) >= _MIN_SEPARATION for f in factors
        )
        if not ok:
            continue
        weights = rng.uniform(*_WEIGHT_RANGE, rank)
        return CpDecomposition(factors, weights)
    raise DegeneracyError(
        f"no draw met kappa <= {_KAPPA_MAX} and separation >= {_MIN_SEPARATION}"
    )


def smoothed_decomposition(shape, rank, rho, seed=0):
    """Random perturbed-factor decomposition in the overcomplete regime.

    Base factors are random unit columns; each coordinate then gets
    independent N(0, rho^2/n) noise and columns are renormalized; weights
    are uniform in [0.5, 2]. No conditioning is enforced: the point of
    these instances is that the perturbation alone makes the flattened
    factors well conditioned.
    """
    shape = tuple(int(s) for s in shape)
    rank = int(rank)
    if rank < 1:
        raise PreconditionError("rank must be positive")
    rng = derive_rng(seed, TAG_SYNTH, 0)
    factors = [_smoothed_columns(rng, n, rank, float(rho)) for n in shape]
    weights = rng.uniform(*_WEIGHT_RANGE, rank)
    return CpDecomposition(factors, weights)


def random_orthogonal_symmetric(n, k, seed=0):
    """Symmetric order-3 decomposition with orthonormal shared factors.

    All three modes share one random orthonormal n x k frame; weights are
    uniform in [1, 2]. Synthesizing gives an orthogonally decomposable
    symmetric tensor.
    """
    n, k = int(n), int(k)
    if not 1 <= k <= n:
        raise PreconditionError("need 1 <= k <= n for orthonormal factors")
    rng = derive_rng(seed, TAG_SYNTH, 0)
    basis = _orthonormal(rng, n, k)
    # pre-orient columns to the canonical sign so the constructor's
    # normalization cannot flip weights out of [1, 2] (a flip in all
    # three modes multiplies the weight by -1)
    basis *= np.sign(basis[np.argmax(basis != 0.0, axis=0), np.arange(k)])
    weights = rng.uniform(*_LAMBDA_RANGE, k)
    return CpDecomposition([basis, basis, basis], weights)


def gmm_orthogonal_params(n, k, norm=5.0, seed=0):
    """Mixture with orthogonal means of a common positive, finite norm."""
    n, k = int(n), int(k)
    if not 1 <= k <= n:
        raise PreconditionError(f"orthogonal means need 1 <= k <= n, got k={k}, n={n}")
    if not 0 < norm < np.inf:
        raise PreconditionError(f"norm must be positive and finite, got {norm}")
    rng = derive_rng(seed, TAG_SYNTH, 0)
    return GmmParams(means=float(norm) * _orthonormal(rng, n, k))


def gmm_smoothed_params(n, k, rho=0.5, seed=0):
    """Mixture with smoothed unit-norm means, typically overcomplete (k > n)."""
    n, k = int(n), int(k)
    rng = derive_rng(seed, TAG_SYNTH, 0)
    return GmmParams(means=_smoothed_columns(rng, n, k, float(rho)))


def hmm_random_params(n, k, seed=0, noise_scale=0.0):
    """Random chain with certified sigma_k lower bounds on P and O.

    Transition columns mix a sticky diagonal with smoothed uniform draws
    (a purely random column-stochastic matrix concentrates near rank one,
    so its k-th singular value is almost always tiny); observation means
    are standard Gaussian columns. Draws are rejected until the k-th
    singular values of both matrices reach 0.2.
    """
    n, k = int(n), int(k)
    if k < 1 or n < 1:
        raise PreconditionError("n and k must be positive")
    if k > n:
        raise PreconditionError("need k <= n for full-rank observation means")
    for attempt in range(_MAX_DRAWS):
        rng = derive_rng(seed, TAG_SYNTH, attempt)
        p = 0.3 + rng.random((k, k))
        p /= p.sum(axis=0)[None, :]
        p = 0.5 * p + 0.5 * np.eye(k)
        o = rng.standard_normal((n, k))
        sig_p = np.linalg.svd(p, compute_uv=False)[-1]
        sig_o = np.linalg.svd(o, compute_uv=False)[k - 1]
        if sig_p < _MIN_SIGMA or sig_o < _MIN_SIGMA:
            continue
        try:
            w = stationary_distribution(p)
        except PreconditionError:
            continue
        return HmmParams(
            transition=p,
            observation_means=o,
            stationary=w,
            noise_scale=float(noise_scale),
        )
    raise DegeneracyError(f"no draw met sigma_k >= {_MIN_SIGMA} for both P and O")
