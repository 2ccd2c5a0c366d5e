"""Simultaneous tensor power iteration, and whitening.

For a symmetric order-3 tensor ``T = sum_i lambda_i v_i^(x3)`` with
orthonormal ``v_i``, the ``v_i`` are attracting fixed points of contracting
k orthonormal columns, ``z_r -> T(:, z_r, z_r)``, and orthonormalizing the
results by one QR (Wang & Lu 2017, ICML); that is the guarantee kept here.
It is not the deflation the chapter analyses (Anandkumar, Ge, Hsu, Kakade &
Telgarsky 2014, JMLR), whose noise bound is not claimed; ``deflate_decompose``
keeps that name for API and benchmark compatibility. Non-orthogonal
components are first whitened: contract every mode with ``W = (top-k
truncated pinv of M)^(1/2)`` from the matching order-2 moment ``M``,
decompose, and map the components back through the transpose pseudoinverse
of ``W``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .seeding import TAG_POWER, derive_rng
from .tensor_core import DenseTensor, _cp_dense

_DEGENERATE_NORM = 1e-14
_SYMMETRY_RTOL = 1e-8
_WHITEN_RANK_RTOL = 1e-8
# Steps allowed per call, and the largest column step that counts as settled.
_MAX_ITERS = 500
_STEP_TOL = 1e-12


@dataclass(frozen=True)
class PowerConfig:
    """Seed of the one ``(seed, TAG_POWER)`` stream of a deflate_decompose call."""

    seed: int = 0


@dataclass
class OrthogonalDecomposition:
    """Weighted symmetric rank-one terms ``sum_i lambdas[i] * v_i^(x3)``.

    ``vectors`` holds the ``v_i`` as the orthonormal columns of an (n, k)
    matrix, signed columns of a QR's Q. ``deflate_decompose``, the one
    constructor, builds finite float64 arrays of matching shapes.
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
    """Recover k terms of a symmetric tensor by simultaneous power iteration.

    The start is one (n, k) block of the call's one ``(config.seed,
    TAG_POWER)`` stream, orthonormalized by QR. Each step contracts all k
    columns and takes one QR, each column of Q signed as its diagonal entry
    of R so that a settled column maps to itself, until no column moves by
    1e-12. Raises DegeneracyError when an entry of R's diagonal vanishes (at
    most 1e-14 times the largest) or 500 steps pass unsettled. Returns
    ``(decomposition, residual)``: lambdas ``T(v_i, v_i, v_i)`` made
    nonnegative by folding each sign into its vector, sorted descending,
    and ``||T - sum_i lambda_i v_i^(x3)||``; k = 0 takes one empty step.
    """
    cfg = config or PowerConfig()
    arr = _require_symmetric(t)
    k = int(k)
    n = arr.shape[0]
    if k < 0 or k > n:
        raise PreconditionError(f"k must lie in [0, {n}], got {k}")
    z, _ = np.linalg.qr(derive_rng(cfg.seed, TAG_POWER).standard_normal((n, k)))
    for steps in range(1, _MAX_ITERS + 1):
        q, r = np.linalg.qr(_contract(arr, z))
        diag = np.diag(r)
        vanished = np.abs(diag) <= _DEGENERATE_NORM * np.max(np.abs(diag), initial=0.0)
        if vanished.any():
            raise DegeneracyError("a power iteration column vanished", diagnostics={
                "steps": steps, "column": int(np.argmax(vanished))})
        q *= np.where(diag < 0, -1.0, 1.0)
        last_step = float(np.max(np.linalg.norm(q - z, axis=0), initial=0.0))
        z = q
        if last_step < _STEP_TOL:
            break
    else:
        raise DegeneracyError(f"power iteration did not settle in {_MAX_ITERS} steps",
                              diagnostics={"steps": _MAX_ITERS, "last_step": last_step})
    lambdas = np.einsum("ir,ir->r", z, _contract(arr, z))
    # lam * v^(x3) == (-lam) * (-v)^(x3) at odd order
    order = np.argsort(-np.abs(lambdas), kind="stable")
    lambdas, vectors = np.abs(lambdas)[order], (z * np.where(lambdas < 0, -1.0, 1.0))[:, order]
    residual = float(np.linalg.norm((arr - _cp_dense([vectors] * 3, lambdas).data).ravel()))
    return OrthogonalDecomposition(lambdas=lambdas, vectors=vectors), residual


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
