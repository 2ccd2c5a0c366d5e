"""Thin, contract-checked wrappers around the dense linear algebra kernels.

Everything here defers the numerics to LAPACK via numpy; the value added is
fixed conventions (relative rank cutoffs, unit eigenvectors) and the
leave-one-out distance, read off one SVD through the row norms of the
pseudoinverse. ``_split_rank_one`` is the one rank-one split of the
package: Jennrich's step 4 and the unflatten of fused modes both call it.
"""

import numpy as np

from .errors import PreconditionError

# Singular values at or below this fraction of the largest count as zero.
_RANK_RTOL = 1e-10


def _as_matrix(m, who):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise PreconditionError(f"{who} expects a nonempty 2-D real matrix")
    if not np.all(np.isfinite(m)):
        raise PreconditionError(f"{who}: matrix entries must be finite")
    return m


def truncated_svd(m):
    """Thin SVD ``(u, s, vh)`` with the singular values at or below ``1e-10``
    times the largest dropped (all of them for a zero matrix)."""
    m = _as_matrix(m, "truncated_svd")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = int(np.count_nonzero(s > _RANK_RTOL * s[0]))
    return u[:, :r], s[:r], vh[:r]


def _split_rank_one(blocks):
    """Best rank-one fit of each matrix of a (k, a, b) stack by one stacked
    SVD: returns the unit left vectors (a, k), the top singular values (k,),
    the unit right vectors (b, k) and the norms of the remaining singular
    values (k,), which are each fit's Frobenius residual (Eckart-Young)."""
    u, s, vh = np.linalg.svd(blocks, full_matrices=False)
    return u[:, :, 0].T, s[:, 0], vh[:, 0, :].T, np.linalg.norm(s[:, 1:], axis=1)


def _null_space(a):
    """Orthonormal basis of the null space of ``a``, one column per singular
    direction at or below ``max(s) * eps * max(shape)``, the cutoff of
    SciPy's ``null_space``."""
    a = _as_matrix(a, "null_space")
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(s, initial=0.0) * (np.finfo(np.float64).eps * max(a.shape))
    return vh[np.count_nonzero(s > tol) :].T


def pseudoinverse(m):
    """Moore-Penrose pseudoinverse via SVD truncation.

    Singular values at or below ``1e-10`` times the largest are treated as
    zero.
    """
    u, s, vh = truncated_svd(m)
    return (vh.T / s) @ u.T


def eig_nonsymmetric(m):
    """Eigenpairs of a square real matrix as ``(values, vectors)``, as
    ``np.linalg.eig`` gives them: (n,) complex eigenvalues and (n, n) complex
    unit columns with ``m @ vectors[:, i] = values[i] * vectors[:, i]``.
    ``jennrich_decompose``, the caller, passes the square ``core[:k, :k]``."""
    m = _as_matrix(m, "eig_nonsymmetric")
    return np.linalg.eig(m)


def condition_number(m):
    """sigma_1 / sigma_k for an n x k matrix with k <= n; inf if singular.

    Singularity is judged at machine precision: a trailing singular value
    at or below eps times the largest cannot be certified nonzero in
    float64, so such matrices report inf rather than a meaningless 1e16.
    The callers, ``_safe_kappa`` and ``random_decomposition``, never pass k > n.
    """
    m = _as_matrix(m, "condition_number")
    k = m.shape[1]
    s = np.linalg.svd(m, compute_uv=False)
    if s[k - 1] <= s[0] * np.finfo(np.float64).eps:
        return float("inf")
    return float(s[0] / s[k - 1])


def leave_one_out(m):
    """min over columns i of the distance from column i to span(the rest).

    That distance is ``1 / norm(row i of pinv(m))`` for full column rank
    (Rudelson & Vershynin 2009), so one SVD gives every column's: row i of
    the pseudoinverse has the norm of ``vh[:, i] / s``. Both are scaled by
    the smallest singular value, which keeps tiny and huge matrices finite.
    More columns than rows, or a zero singular value, give 0.
    """
    m = _as_matrix(m, "leave_one_out")
    n, k = m.shape
    if k > n:
        return 0.0
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    if s[-1] == 0.0:
        return 0.0
    return float(s[-1] / np.linalg.norm(vh * (s[-1] / s)[:, None], axis=0).max())
