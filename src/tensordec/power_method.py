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

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .seeding import TAG_POWER, derive_rng
from .tensor_core import DenseTensor

_DEGENERATE_NORM = 1e-14
_SYMMETRY_RTOL = 1e-8
_WHITEN_RANK_RTOL = 1e-8
# Per run: iterations allowed, and the step size that counts as converged.
_MAX_ITERS = 500
_STEP_TOL = 1e-12
# Independent runs per deflation round.
_RESTARTS = 10


@dataclass(frozen=True)
class PowerConfig:
    """Seed of the random starts of :func:`deflate_decompose`."""

    seed: int = 0


@dataclass
class OrthogonalDecomposition:
    """Weighted symmetric rank-one terms ``sum_i lambdas[i] * v_i^(x3)``.

    ``vectors`` holds the ``v_i`` as columns of an (n, k) matrix, unit norm
    and mutually orthogonal for exactly decomposable inputs; recovery from
    noisy tensors can leave small cross inner products, which
    :meth:`validate` measures rather than the constructor rejecting them.
    """

    lambdas: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.lambdas = np.asarray(self.lambdas, dtype=np.float64)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.lambdas.ndim != 1 or self.vectors.ndim != 2:
            raise PreconditionError("need (k,) lambdas and (n, k) vectors")
        if self.vectors.shape[1] != self.lambdas.shape[0]:
            raise PreconditionError("one vector per lambda required")
        if not (
            np.all(np.isfinite(self.lambdas)) and np.all(np.isfinite(self.vectors))
        ):
            raise PreconditionError("entries must be finite")

    @property
    def rank(self):
        return int(self.lambdas.shape[0])

    def max_cross_inner(self):
        """Largest |<v_i, v_j>| over i != j (0.0 when rank < 2)."""
        gram = self.vectors.T @ self.vectors
        k = self.rank
        if k < 2:
            return 0.0
        off = gram[~np.eye(k, dtype=bool)]
        return float(np.max(np.abs(off)))

    def max_norm_deviation(self):
        norms = np.linalg.norm(self.vectors, axis=0)
        return float(np.max(np.abs(norms - 1.0))) if self.rank else 0.0

    def validate(self, ortho_tol=1e-8, norm_tol=1e-10):
        """Raise unless the columns are unit and pairwise orthogonal."""
        dev = self.max_norm_deviation()
        if dev > norm_tol:
            raise PreconditionError(f"column norms deviate from 1 by {dev:.3e}")
        cross = self.max_cross_inner()
        if cross > ortho_tol:
            raise PreconditionError(f"columns not orthogonal: max inner {cross:.3e}")


def _require_symmetric(t):
    if t.order != 3:
        raise PreconditionError("expected an order-3 tensor")
    n = t.shape[0]
    if t.shape != (n, n, n):
        raise PreconditionError(f"expected a cubic tensor, got shape {t.shape}")
    arr = t.data
    sym = np.zeros_like(arr)
    for axes in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym += np.transpose(arr, axes)
    sym /= 6.0
    scale = np.linalg.norm(arr.ravel())
    if np.linalg.norm((arr - sym).ravel()) > _SYMMETRY_RTOL * max(scale, 1e-300):
        raise PreconditionError("tensor is not symmetric within tolerance")
    return arr


def _iterate_from(arr, z):
    """Run the contraction map from z; returns (z, converged, degenerate)."""
    for _ in range(_MAX_ITERS):
        u = np.einsum("ijk,j,k->i", arr, z, z)
        norm = float(np.linalg.norm(u))
        if norm < _DEGENERATE_NORM:
            return z, False, True
        z_next = u / norm
        step = float(np.linalg.norm(z_next - z))
        z = z_next
        if step < _STEP_TOL:
            return z, True, False
    return z, False, False


def deflate_decompose(t, k, config=None):
    """Recover k terms of a symmetric tensor by iterated deflation.

    Each round runs 10 independent power iterations, of at most 500 steps,
    on the current residual tensor and keeps the converged run with the
    largest ``|lambda|``; the winning term is subtracted and the next round begins.
    Returns ``(decomposition, residual_frobenius_norm)`` with terms sorted
    by ``|lambda|`` descending; lambdas are reported nonnegative, the sign
    folding into the vector. Raises DegeneracyError when a round has no
    converged run.
    """
    cfg = config or PowerConfig()
    arr = _require_symmetric(t).copy()
    k = int(k)
    n = arr.shape[0]
    if k < 0 or k > n:
        raise PreconditionError(f"k must lie in [0, {n}], got {k}")
    lambdas = []
    vectors = []
    for round_idx in range(k):
        best = None
        for restart in range(_RESTARTS):
            rng = derive_rng(cfg.seed, TAG_POWER, round_idx, restart)
            z0 = rng.standard_normal(n)
            z0 /= np.linalg.norm(z0)
            z, converged, degenerate = _iterate_from(arr, z0)
            if degenerate or not converged:
                continue
            lam = float(z @ np.einsum("ijk,j,k->i", arr, z, z))
            if best is None or abs(lam) > abs(best[0]):
                best = (lam, z)
        if best is None:
            raise DegeneracyError(
                "no power iteration restart converged",
                diagnostics={"round": round_idx, "restarts": _RESTARTS},
            )
        lam, z = best
        arr -= lam * np.einsum("i,j,k->ijk", z, z, z)
        lambdas.append(lam)
        vectors.append(z)

    lambdas = np.array(lambdas) if lambdas else np.zeros(0)
    vectors = np.column_stack(vectors) if vectors else np.zeros((n, 0))
    order = np.argsort(-np.abs(lambdas), kind="stable")
    lambdas = lambdas[order]
    vectors = vectors[:, order]
    # lam * v^(x3) == (-lam) * (-v)^(x3) at odd order, so report every
    # lambda nonnegative and fold the sign into the vector
    for i in range(vectors.shape[1]):
        if lambdas[i] < 0:
            vectors[:, i] = -vectors[:, i]
            lambdas[i] = -lambdas[i]
    residual = float(np.linalg.norm(arr.ravel()))
    return OrthogonalDecomposition(lambdas=lambdas, vectors=vectors), residual


@dataclass(frozen=True)
class WhiteningResult:
    """tensor: the whitened (k, k, k) tensor; back_map: (n, k) matrix B with
    original components ``lam_i * B @ v_i``."""

    tensor: DenseTensor
    back_map: np.ndarray


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
    with ``W``. For ``t = sum_i w_i u_i^(x3)`` and ``m = sum_i w_i
    u_i^(x2)`` the result is orthogonally decomposable with lambdas
    ``w_i^(-1/2)``, and ``back_map`` returns scaled components to the
    original space: ``u_i = lam_i * back_map @ v_i``.
    """
    arr = _require_symmetric(t)
    forward, back = _whitening_maps(m, arr.shape[0], int(k))
    whitened = np.einsum("abc,ai,bj,ck->ijk", arr, forward, forward, forward)
    return WhiteningResult(tensor=DenseTensor(whitened), back_map=back)
