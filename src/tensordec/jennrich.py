"""Jennrich's simultaneous-diagonalization algorithm for order-3 tensors.

Given ``T = sum_i u_i (x) v_i (x) w_i`` with full-column-rank ``U`` and
``V`` and pairwise-separated ``w_i`` directions, the algorithm is:

1. draw ``a, b ~ N(0, 1/p)^p`` and form the slice combinations
   ``M_a = T(:, :, a)``, ``M_b = T(:, :, b)``;
2. the u-factors are eigenvectors of ``M_a pinv(M_b)`` for the k largest
   (in magnitude) eigenvalues, whose values are the Rayleigh ratios
   ``<w_i, a> / <w_i, b>``; the v-factors are eigenvectors of
   ``(pinv(M_a) M_b)^T``, whose nonzero eigenvalues are the reciprocal
   ratios;
3. pair u- and v-eigenvectors whose eigenvalues multiply to 1 within a
   tolerance;
4. solve the stacked linear system ``T = sum_i u_i (x) v_i (x) w_i`` for
   the w-factors by least squares over all n*m*p entries (the coefficient
   of ``w_i`` at slice position (i1, i2) is the rank-one matrix
   ``u_i v_i^T``);
5. return the canonical decomposition.

Random draws whose eigenvalue ratios come too close together, or too close
to zero, are rejected and redrawn: the ratios concentrate apart for
well-separated ``w_i``, so a handful of retries suffices away from
degenerate inputs.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import DegeneracyError, PreconditionError
from .matrix_ops import condition_number, eig_nonsymmetric, pseudoinverse
from .seeding import TAG_JENNRICH, derive_rng
from .tensor_core import CpDecomposition, khatri_rao, slice_combination

AUTO_RANK_THRESHOLD = 1e-6
# Smallest acceptable eigenvalue gap and magnitude before a draw is rejected.
_MIN_SEP = 1e-9
# How far the product of two paired eigenvalues may sit from 1.
_EIG_PAIR_TOL = 1e-3
# Random draws of the combination vectors before giving up.
_DRAWS = 6


@dataclass(frozen=True)
class JennrichConfig:
    """Knobs for :func:`jennrich_decompose`.

    rank: target number of terms, or "auto" to keep every eigenvalue above
    ``1e-6`` times the largest. seed: seeds the random combination vectors.
    """

    rank: object = "auto"
    seed: int = 0


@dataclass
class RecoveryReport:
    """Diagnostics from a decomposition run and, after matching, per-term
    errors against a reference decomposition."""

    condition_numbers: list = field(default_factory=list)
    eigenvalue_min_gap: float | None = None
    eigenvalue_min_magnitude: float | None = None
    max_pair_residual: float | None = None
    max_imag_part: float | None = None
    retries: int | None = None
    permutation: list | None = None
    per_term_errors: list | None = None
    max_error: float | None = None
    unflatten_residuals: list | None = None
    suspect_terms: list | None = None
    deflation_residual: float | None = None

    def to_dict(self):
        out = {}
        for key in self.__dataclass_fields__:
            value = getattr(self, key)
            if value is None:
                continue
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out[key] = value
        return out


def _min_pairwise_gap(values):
    k = values.shape[0]
    if k < 2:
        return float("inf")
    diff = np.abs(values[:, None] - values[None, :])
    return float(np.min(diff[~np.eye(k, dtype=bool)]))


def _safe_kappa(f):
    """Column condition number, or None for wide matrices (k > rows)."""
    if f.shape[1] == 0:
        return None
    if f.shape[1] > f.shape[0]:
        return None
    return condition_number(f)


def _phase_aligned_real(columns):
    """Rotate complex columns so their largest entry is real-positive, then
    take real parts; returns (real matrix, worst leftover imaginary part)."""
    out = np.empty(columns.shape, dtype=np.float64)
    worst = 0.0
    for i in range(columns.shape[1]):
        col = columns[:, i]
        j = int(np.argmax(np.abs(col)))
        pivot = col[j]
        if pivot != 0:
            col = col * (np.conj(pivot) / abs(pivot))
        worst = max(worst, float(np.max(np.abs(col.imag))))
        out[:, i] = col.real
    return out, worst


def jennrich_decompose(t, config=None):
    """Decompose an order-3 tensor into rank-one terms.

    Returns ``(decomposition, report)``. Raises DegeneracyError when no
    random draw within the retry budget produces separated, reciprocally
    paired eigenvalues, and PreconditionError when the requested rank
    exceeds ``min(n, m)``.
    """
    cfg = config or JennrichConfig()
    if t.order != 3:
        raise PreconditionError("jennrich_decompose expects an order-3 tensor")
    n, m, p = t.shape
    rank = cfg.rank
    if rank != "auto":
        rank = int(rank)
        if rank < 0:
            raise PreconditionError("rank must be nonnegative")
        if rank > min(n, m):
            raise PreconditionError(
                f"rank {rank} exceeds min(n, m) = {min(n, m)}; "
                "the side factor matrices cannot have full column rank"
            )
    rng = derive_rng(cfg.seed, TAG_JENNRICH, 0)

    failure = {"attempts": _DRAWS}
    for attempt in range(_DRAWS):
        a = rng.normal(0.0, 1.0 / np.sqrt(p), size=p)
        b = rng.normal(0.0, 1.0 / np.sqrt(p), size=p)
        ma = slice_combination(t, a)
        mb = slice_combination(t, b)

        if rank == "auto":
            m_u = ma @ pseudoinverse(mb)
            probe = eig_nonsymmetric(m_u)
            mags = np.abs(probe.values)
            top = float(np.max(mags)) if mags.size else 0.0
            k = int(np.count_nonzero(mags > AUTO_RANK_THRESHOLD * top)) if top > 0 else 0
            if k > min(n, m):
                k = min(n, m)
        else:
            k = rank
        if k == 0:
            empty = CpDecomposition(
                [np.zeros((n, 0)), np.zeros((m, 0)), np.zeros((p, 0))], []
            )
            return empty, RecoveryReport(condition_numbers=[], retries=attempt)

        m_u = ma @ pseudoinverse(mb, rank=k)
        m_v = (pseudoinverse(ma, rank=k) @ mb).T
        eig_u = eig_nonsymmetric(m_u)
        eig_v = eig_nonsymmetric(m_v)
        top_u = np.argsort(-np.abs(eig_u.values))[:k]
        top_v = np.argsort(-np.abs(eig_v.values))[:k]
        lam = eig_u.values[top_u]
        mu = eig_v.values[top_v]

        gap = min(_min_pairwise_gap(lam), _min_pairwise_gap(mu))
        mag = float(min(np.min(np.abs(lam)), np.min(np.abs(mu))))
        if not (gap >= _MIN_SEP and mag >= _MIN_SEP):
            failure.update(min_gap=gap, min_magnitude=mag, stage="separation")
            continue

        # Reciprocal pairing: product of matched eigenvalues must be ~1.
        cost = np.abs(lam[:, None] * mu[None, :] - 1.0)
        rows, cols = linear_sum_assignment(cost)
        residuals = cost[rows, cols]
        if np.max(residuals) > _EIG_PAIR_TOL:
            failure.update(
                worst_pair_residual=float(np.max(residuals)), stage="pairing"
            )
            continue

        u_cols = eig_u.vectors[:, top_u[rows]]
        v_cols = eig_v.vectors[:, top_v[cols]]
        u_mat, imag_u = _phase_aligned_real(u_cols)
        v_mat, imag_v = _phase_aligned_real(v_cols)

        # Least squares for the w-factors: stack every slice of T against
        # the rank-one coefficient matrices u_i v_i^T.
        design = khatri_rao(u_mat, v_mat)
        unfolding = t.data.reshape(n * m, p)
        w_mat = (pseudoinverse(design) @ unfolding).T

        decomposition = CpDecomposition([u_mat, v_mat, w_mat], np.ones(k))
        report = RecoveryReport(
            condition_numbers=[_safe_kappa(f) for f in decomposition.factors],
            eigenvalue_min_gap=gap,
            eigenvalue_min_magnitude=mag,
            max_pair_residual=float(np.max(residuals)) if k else 0.0,
            max_imag_part=max(imag_u, imag_v),
            retries=attempt,
        )
        return decomposition, report

    raise DegeneracyError(
        "no random slice combination produced separated, reciprocally paired "
        f"eigenvalues after {_DRAWS} draws",
        diagnostics=failure,
    )


def _bottleneck_assignment(cost):
    """Perfect matching minimizing the maximum edge cost.

    Binary search over the sorted edge costs; feasibility at a threshold is
    a bipartite matching problem. Returns (columns matched to each row,
    bottleneck value).
    """
    cost = np.asarray(cost, dtype=np.float64)
    k = cost.shape[0]
    if k == 0:
        return np.zeros(0, dtype=int), 0.0
    levels = np.unique(cost)
    lo, hi = 0, levels.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        graph = csr_matrix(cost <= levels[mid])
        match = maximum_bipartite_matching(graph, perm_type="column")
        if np.all(match >= 0):
            best = match
            hi = mid - 1
        else:
            lo = mid + 1
    perm = np.asarray(best, dtype=int)
    return perm, float(np.max(cost[np.arange(k), perm]))


def match_terms(found, truth):
    """Optimally align two decompositions and report per-term errors.

    The assignment minimizes the maximum Frobenius distance between whole
    rank-one terms, so the result is immune to per-column scaling and sign
    choices (both sides are in canonical form). Ranks must agree.
    """
    if found.order != truth.order or found.shape != truth.shape:
        raise PreconditionError(
            f"shape mismatch: {found.shape} vs {truth.shape}"
        )
    if found.rank != truth.rank:
        raise PreconditionError(
            f"rank mismatch: {found.rank} vs {truth.rank}"
        )
    k = found.rank
    found_terms = [found.term(i).data for i in range(k)]
    truth_terms = [truth.term(j).data for j in range(k)]
    cost = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            cost[i, j] = np.linalg.norm(found_terms[i] - truth_terms[j])
    perm, bottleneck = _bottleneck_assignment(cost)
    errors = [float(cost[i, perm[i]]) for i in range(k)]
    return RecoveryReport(
        condition_numbers=[_safe_kappa(f) for f in found.factors],
        permutation=[int(j) for j in perm],
        per_term_errors=errors,
        max_error=bottleneck if k else 0.0,
    )
