"""Thin, contract-checked wrappers around the dense linear algebra kernels.

Everything here defers the numerics to LAPACK via numpy/scipy; the value
added is fixed conventions (a relative rank cutoff, unit eigenvectors) and
the leave-one-out distance, which is a column-wise projection quantity
rather than a stock kernel.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import PreconditionError

# Singular values at or below this fraction of the largest count as zero.
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class EigResult:
    """values: (n,) complex eigenvalues; vectors: (n, n) complex, unit
    columns, ``M @ vectors[:, i] = values[i] * vectors[:, i]``."""

    values: np.ndarray
    vectors: np.ndarray


def _as_matrix(m, who):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or min(m.shape) < 1:
        raise PreconditionError(f"{who} expects a nonempty 2-D real matrix")
    if not np.all(np.isfinite(m)):
        raise PreconditionError(f"{who}: matrix entries must be finite")
    return m


def pseudoinverse(m, rank=None):
    """Moore-Penrose pseudoinverse via SVD truncation.

    Singular values at or below ``1e-10`` times the largest are treated as
    zero. When ``rank`` is given, at most that many leading singular values
    are inverted (callers that know the target rank truncate there).
    """
    m = _as_matrix(m, "pseudoinverse")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    keep = s > _RANK_RTOL * s[0]
    if rank is not None:
        keep &= np.arange(s.size) < int(rank)
    r = int(np.count_nonzero(keep))
    if r == 0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv = vh[:r].T / s[:r]
    return inv @ u[:, :r].T


def eig_nonsymmetric(m):
    """Eigenpairs of a square real matrix; complex output, unit columns."""
    m = _as_matrix(m, "eig_nonsymmetric")
    if m.shape[0] != m.shape[1]:
        raise PreconditionError(f"eig_nonsymmetric needs a square matrix, got {m.shape}")
    values, vectors = np.linalg.eig(m)
    return EigResult(values=values, vectors=vectors)


def condition_number(m):
    """sigma_1 / sigma_k for an n x k matrix with k <= n; inf if singular.

    Singularity is judged at machine precision: a trailing singular value
    at or below eps times the largest cannot be certified nonzero in
    float64, so such matrices report inf rather than a meaningless 1e16.
    """
    m = _as_matrix(m, "condition_number")
    n, k = m.shape
    if k > n:
        raise PreconditionError(f"condition_number expects k <= n, got {m.shape}")
    s = np.linalg.svd(m, compute_uv=False)
    if s[k - 1] <= s[0] * np.finfo(np.float64).eps:
        return float("inf")
    return float(s[0] / s[k - 1])


def leave_one_out(m):
    """min over columns i of the distance from column i to span(the rest).

    The projection uses an orthonormal basis of the other columns (computed
    stably from their SVD), never the normal equations. For a single column
    the span of "the rest" is trivial and the answer is that column's norm.
    """
    m = _as_matrix(m, "leave_one_out")
    n, k = m.shape
    best = np.inf
    for i in range(k):
        col = m[:, i]
        if k == 1:
            dist = float(np.linalg.norm(col))
        else:
            rest = np.delete(m, i, axis=1)
            basis = scipy.linalg.orth(rest)
            if basis.shape[1] == 0:
                dist = float(np.linalg.norm(col))
            else:
                resid = col - basis @ (basis.T @ col)
                dist = float(np.linalg.norm(resid))
        best = min(best, dist)
    return best
