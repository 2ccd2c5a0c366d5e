"""Tensor power iteration with deflation and whitening.

For a symmetric order-3 tensor ``T = sum_i lambda_i v_i^(x3)`` with
orthonormal ``v_i``, the map ``z -> T(:, z, z) / ||T(:, z, z)||`` has the
``v_i`` as attracting fixed points, so repeated contraction from a random
start converges to one component; subtracting the recovered term and
repeating yields the rest. Tensors with linearly independent but
non-orthogonal components are first whitened: contract every mode with
``W = (top-k truncated pinv of M)^(1/2)`` built from the matching
order-2 moment ``M``, decompose the now-orthogonal tensor, and map the
components back through the transpose pseudoinverse of ``W``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .seeding import TAG_POWER, derive_rng
from .tensor_core import DenseTensor

_DEGENERATE_NORM = 1e-14
_SYMMETRY_RTOL = 1e-8
_WHITEN_RANK_RTOL = 1e-8
# Steps allowed per round, and the step size that counts as converged.
_MAX_ITERS = 500
_STEP_TOL = 1e-12
# Independent runs per deflation round.
_RESTARTS = 10


@dataclass(frozen=True)
class PowerConfig:
    """Seed of the one ``(seed, TAG_POWER)`` stream of a deflate_decompose call."""

    seed: int = 0


@dataclass
class OrthogonalDecomposition:
    """Weighted symmetric rank-one terms ``sum_i lambdas[i] * v_i^(x3)``.

    ``vectors`` holds the ``v_i`` as columns of an (n, k) matrix, unit norm
    and mutually orthogonal for exactly decomposable inputs; recovery from
    noisy tensors can leave small cross inner products. ``deflate_decompose``,
    the one constructor, builds finite float64 arrays of matching shapes.
    """

    lambdas: np.ndarray
    vectors: np.ndarray


def _symmetrize(arr):
    """The mean of a cubic order-3 array over its six axis permutations."""
    return sum(np.transpose(arr, axes) for axes in itertools.permutations(range(3))) / 6.0


def _require_symmetric(t):
    if t.order != 3:
        raise PreconditionError("expected an order-3 tensor")
    n = t.shape[0]
    if t.shape != (n, n, n):
        raise PreconditionError(f"expected a cubic tensor, got shape {t.shape}")
    arr = t.data
    sym = _symmetrize(arr)
    scale = np.linalg.norm(arr.ravel())
    if np.linalg.norm((arr - sym).ravel()) > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise PreconditionError("tensor is not symmetric within tolerance")
    return arr


def _contract(arr, z):
    """``T(:, z_r, z_r)`` for every column z_r of the (n, R) matrix z."""
    n = arr.shape[0]
    partial = (arr.reshape(n * n, n) @ z).reshape(n, n, z.shape[1])
    return np.einsum("ijr,jr->ir", partial, z)


def deflate_decompose(t, k, config=None):
    """Recover k terms of a symmetric tensor by iterated deflation.

    Each round draws its 10 unit starts as one (n, 10) block of the call's
    one ``(config.seed, TAG_POWER)`` stream and steps them together, one
    contraction of all of them per step, until every run has settled: its
    step is below 1e-12 or its contraction has vanished (norm below 1e-14),
    or 500 steps have passed. A run is eligible when its last contraction
    did not vanish and its last step is below 1e-12; the eligible run with
    the largest ``|lambda|`` wins (the first on a tie), its term is
    subtracted and the next round begins. Returns ``(decomposition,
    residual_frobenius_norm)`` with terms sorted by ``|lambda|``
    descending; lambdas are reported nonnegative, the sign folding into
    the vector. Raises DegeneracyError when a round has no eligible run.
    """
    cfg = config or PowerConfig()
    arr = _require_symmetric(t).copy()
    k = int(k)
    n = arr.shape[0]
    if k < 0 or k > n:
        raise PreconditionError(f"k must lie in [0, {n}], got {k}")
    rng = derive_rng(cfg.seed, TAG_POWER)
    lambdas = np.zeros(k)
    vectors = np.zeros((n, k))
    for round_idx in range(k):
        z = rng.standard_normal((n, _RESTARTS))
        z /= np.linalg.norm(z, axis=0)
        for _ in range(_MAX_ITERS):
            u = _contract(arr, z)
            norms = np.linalg.norm(u, axis=0)
            # the floor keeps vanished runs finite
            z_next = u / np.maximum(norms, _DEGENERATE_NORM)
            steps = np.linalg.norm(z_next - z, axis=0)
            z = z_next
            if np.all((steps < _STEP_TOL) | (norms < _DEGENERATE_NORM)):
                break
        eligible = (steps < _STEP_TOL) & (norms >= _DEGENERATE_NORM)
        if not eligible.any():
            raise DegeneracyError(
                "no power iteration restart converged",
                diagnostics={"round": round_idx, "restarts": _RESTARTS},
            )
        lams = np.einsum("ir,ir->r", z, _contract(arr, z))
        best = int(np.argmax(np.where(eligible, np.abs(lams), -1.0)))
        lam, v = float(lams[best]), z[:, best]
        # a direct einsum, not tensor_core._cp_dense: at 16^3 it takes 15.5 us
        # against 36 us, and it runs once per deflation round
        arr -= lam * np.einsum("i,j,k->ijk", v, v, v)
        # lam * v^(x3) == (-lam) * (-v)^(x3) at odd order: store every
        # lambda nonnegative with its sign folded into the vector
        sign = -1.0 if lam < 0 else 1.0
        lambdas[round_idx] = sign * lam
        vectors[:, round_idx] = sign * v

    order = np.argsort(-lambdas, kind="stable")
    residual = float(np.linalg.norm(arr.ravel()))
    return OrthogonalDecomposition(lambdas=lambdas[order], vectors=vectors[:, order]), residual


def _whitening_maps(m, n, k):
    """``(W, B)`` from the checked top-k eigenpairs of an (n, n) order-2
    moment: ``W = V_k diag(eig)^(-1/2)`` whitens, ``B = V_k diag(eig)^(1/2)``
    maps back."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (n, n):
        raise PreconditionError(f"order-2 moment must be {n}x{n}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise PreconditionError("order-2 moment must be finite")
    asym = np.linalg.norm(m - m.T)
    if asym > _SYMMETRY_RTOL * max(np.linalg.norm(m), 1e-300):
        raise PreconditionError("order-2 moment is not symmetric")
    if not 1 <= k <= n:
        raise PreconditionError(f"k must lie in [1, {n}], got {k}")
    eigvals, eigvecs = np.linalg.eigh((m + m.T) / 2.0)
    eigvals = eigvals[::-1]
    eigvecs = eigvecs[:, ::-1]
    if eigvals[0] <= 0.0 or eigvals[k - 1] <= _WHITEN_RANK_RTOL * eigvals[0]:
        raise PreconditionError(
            f"order-2 moment has numerical rank below k={k}: "
            f"eigenvalue {k} is {eigvals[k - 1]:.3e} vs top {eigvals[0]:.3e}"
        )
    root = np.sqrt(eigvals[:k])
    return eigvecs[:, :k] / root, eigvecs[:, :k] * root


def whiten(t, m, k):
    """Orthogonalize a symmetric tensor against its order-2 moment.

    ``m`` must be symmetric with numerical rank at least ``k`` (eigenvalue
    k must exceed 1e-8 times the largest); its top-k eigenspace defines
    ``W = V_k diag(eig)^(-1/2)``, and every mode of ``t`` is contracted
    with ``W``. Returns ``(tensor, back_map)``: the whitened (k, k, k)
    DenseTensor and the (n, k) matrix ``B = V_k diag(eig)^(1/2)``. For
    ``t = sum_i w_i u_i^(x3)`` and ``m = sum_i w_i u_i^(x2)`` the tensor is
    orthogonally decomposable with lambdas ``w_i^(-1/2)``, and ``B`` returns
    scaled components to the original space: ``u_i = lam_i * B @ v_i``.
    """
    arr = _require_symmetric(t)
    forward, back = _whitening_maps(m, arr.shape[0], int(k))
    # optimize=True contracts one mode at a time: O(n^3 k), not O(n^3 k^3)
    whitened = np.einsum("abc,ai,bj,ck->ijk", arr, forward, forward, forward, optimize=True)
    return DenseTensor(whitened), back
