"""Jennrich's simultaneous-diagonalization algorithm for order-3 tensors.

Given ``T = sum_i u_i (x) v_i (x) w_i`` with full-column-rank ``U`` and
``V`` and pairwise-separated ``w_i`` directions, the algorithm is
(Leurgans, Ross & Abel 1993):

1. draw ``a, b ~ N(0, 1/p)^p`` and form the slice combinations
   ``M_a = T(:, :, a)``, ``M_b = T(:, :, b)``;
2. take the thin SVD ``M_b = P S Q^T``, cut at the pseudoinverse's rank
   tolerance (singular values above ``1e-10`` times the largest), and form
   the r x r core ``C = P^T M_a Q S^-1``; its eigenvalues are the nonzero
   eigenvalues of ``M_a pinv(M_b)``, the Rayleigh ratios
   ``<w_i, a> / <w_i, b>``, and its leading k x k block is the core of the
   rank-k truncation. At ``rank="auto"``, k is r itself;
3. the u-factors are ``P_k Y`` for the eigenvectors ``Y`` of that block;
4. row i of ``pinv(U) T_(1)``, reshaped to m x p, is ``v_i w_i^T``, so one
   stacked rank-one split of the k rows (``_split_rank_one``, shared with
   the unflatten) gives ``v_i``, ``w_i``, the weight and the split residual;
5. return the canonical decomposition.

Random draws whose eigenvalue ratios come too close together, or too close
to zero, are rejected and redrawn: the ratios concentrate apart for
well-separated ``w_i``, so a handful of retries suffices away from
degenerate inputs.

One assignment, ``_bottleneck_assignment``, pairs found items with true ones
for both ``match_terms`` (rank-one terms) and ``match_columns`` (columns).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .matrix_ops import (_split_rank_one, condition_number, eig_nonsymmetric,
                         pseudoinverse, truncated_svd)
from .seeding import TAG_JENNRICH, derive_rng
from .tensor_core import CpDecomposition, _cp_dense, slice_combination

# Smallest acceptable eigenvalue gap and magnitude before a draw is rejected.
_MIN_SEP = 1e-9
# Random draws of the combination vectors before giving up.
_DRAWS = 6


@dataclass(frozen=True)
class JennrichConfig:
    """Knobs for :func:`jennrich_decompose`.

    rank: target number of terms, or "auto" for the rank r of ``M_b``, the
    count of its singular values above ``1e-10`` times the largest. seed:
    seeds the random combination vectors.
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
    max_split_residual: float | None = None
    max_imag_part: float | None = None
    retries: int | None = None
    permutation: list | None = None
    per_term_errors: list | None = None
    max_error: float | None = None
    unflatten_residuals: list | None = None
    suspect_terms: list | None = None
    deflation_residual: float | None = None

    def to_dict(self):
        return {key: value for key, value in vars(self).items() if value is not None}


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
    """Rotate nonzero complex columns so their largest entry is real-positive,
    then take real parts; returns (real matrix, worst leftover imaginary part)."""
    pivots = columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]
    rotated = columns * (np.conj(pivots) / np.abs(pivots))
    return rotated.real, float(np.max(np.abs(rotated.imag)))


def jennrich_decompose(t, config=None):
    """Decompose an order-3 tensor into rank-one terms.

    Returns ``(decomposition, report)``. Raises DegeneracyError when no
    random draw within the retry budget produces separated eigenvalues, its
    diagnostics describing the last draw: ``stage: "rank"`` with the rank of
    ``M_b`` and the requested rank when ``M_b`` had too small a rank to
    compute any, else ``stage: "separation"`` with the eigenvalues' smallest
    gap and magnitude. Raises PreconditionError when the requested rank
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

    for attempt in range(_DRAWS):
        a = rng.normal(0.0, 1.0 / np.sqrt(p), size=p)
        b = rng.normal(0.0, 1.0 / np.sqrt(p), size=p)
        ma = slice_combination(t, a)
        left, s, right_t = truncated_svd(slice_combination(t, b))
        core = (left.T @ ma @ right_t.T) / s
        r = s.size
        k = r if rank == "auto" else rank
        if k == 0:
            empty = CpDecomposition(
                [np.zeros((n, 0)), np.zeros((m, 0)), np.zeros((p, 0))], []
            )
            return empty, RecoveryReport(condition_numbers=[], retries=attempt)
        if k > r:
            failure = {"stage": "rank", "slice_rank": r, "requested_rank": k}
            continue

        values, vectors = eig_nonsymmetric(core[:k, :k])
        order = np.argsort(-np.abs(values))
        lam = values[order]
        gap = _min_pairwise_gap(lam)
        mag = float(np.min(np.abs(lam)))
        if not (gap >= _MIN_SEP and mag >= _MIN_SEP):
            failure = {"stage": "separation", "min_gap": gap, "min_magnitude": mag}
            continue

        u_mat, imag = _phase_aligned_real(left[:, :k] @ vectors[:, order])
        # Row i of pinv(U) T_(1) is v_i (x) w_i; its top singular triple
        # splits it into the other two factors and the weight.
        rows = (pseudoinverse(u_mat) @ t.data.reshape(n, m * p)).reshape(k, m, p)
        v_mat, sigma, w_mat, tail = _split_rank_one(rows)

        decomposition = CpDecomposition([u_mat, v_mat, w_mat], sigma)
        report = RecoveryReport(
            condition_numbers=[_safe_kappa(f) for f in decomposition.factors],
            eigenvalue_min_gap=gap,
            eigenvalue_min_magnitude=mag,
            max_split_residual=float(np.max(tail / sigma)),
            max_imag_part=imag,
            retries=attempt,
        )
        return decomposition, report

    message = f"no random slice combination produced separated eigenvalues after {_DRAWS} draws"
    if failure["stage"] == "rank":
        message += f": the last draw's M_b has rank {r}, below the requested rank {k}"
    raise DegeneracyError(message, diagnostics={"attempts": _DRAWS, **failure})


def _perfect_matching(choices):
    """Perfect matching of rows to columns, or None if there is none.

    ``choices[i]`` lists the columns row i may take, in the order it tries
    them. Rows are matched in index order, each by the first augmenting
    path that a depth-first search finds through its choices in that order
    (Kuhn's algorithm). The search keeps its own stack, so a path as long
    as the matrix needs no recursion. Returns the column of each row.
    """
    k = len(choices)
    row_of = [-1] * k        # row holding each column, -1 if free
    col_of = [-1] * k
    seen_by = [-1] * k       # last root whose search reached each column
    for root in range(k):
        rows, cols, tries = [root], [], [iter(choices[root])]
        while tries:
            for col in tries[-1]:
                if seen_by[col] != root:
                    seen_by[col] = root
                    break
            else:
                # dead end: back to the row that led here, if any
                rows.pop()
                tries.pop()
                del cols[-1:]
                continue
            cols.append(col)
            if row_of[col] < 0:
                for row, c in zip(rows, cols):
                    row_of[c] = row
                    col_of[row] = c
                break
            rows.append(row_of[col])
            tries.append(iter(choices[row_of[col]]))
        else:
            return None
    return col_of


def _bottleneck_assignment(cost):
    """Perfect matching minimizing the maximum edge cost.

    Binary search over the sorted edge costs; feasibility at a threshold is
    a perfect matching on the pairs costing at most that much. Ties among
    optimal matchings go by a fixed rule: rows join the matching in index
    order, each along the first augmenting path found by trying its columns
    from cheapest to dearest, lower index first among equal costs. Returns
    (the column matched to each row, the cost of each matched pair, the
    bottleneck value).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] == 0:
        return [], [], 0.0
    order = np.argsort(cost, axis=1, kind="stable")
    levels = np.unique(cost)
    lo, hi = 0, levels.size - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        allowed = np.count_nonzero(cost <= levels[mid], axis=1)
        match = _perfect_matching([o[:n].tolist() for o, n in zip(order, allowed)])
        if match is not None:
            best = match
            hi = mid - 1
        else:
            lo = mid + 1
    errors = [float(cost[i, j]) for i, j in enumerate(best)]
    return best, errors, max(errors)


def _term_distances(found, truth):
    """k x k Frobenius distances between the terms of two decompositions, from
    the factor Gram matrices: ``<a_i, b_j> = w_i v_j prod_m (F_m^T G_m)_ij``
    (Kolda & Bader 2009). Exact only to about ``sqrt(eps) max|w|``."""
    w, v = (d.weights * np.prod([np.linalg.norm(f, axis=0) for f in d.factors], axis=0)
            for d in (found, truth))
    inner = np.prod([f.T @ g for f, g in zip(found.factors, truth.factors)], axis=0)
    return np.sqrt(np.maximum(np.add.outer(w**2, v**2) - 2.0 * np.outer(w, v) * inner, 0.0))


def match_terms(found, truth):
    """Optimally align two decompositions and report per-term errors.

    The assignment minimizes the largest :func:`_term_distances` entry, so it
    ignores scaling and sign choices (both sides are canonical); each reported
    error is the dense distance of a matched pair, built by the kernel of
    ``synthesize``. Ranks must agree.
    """
    if found.shape != truth.shape:
        raise PreconditionError(f"shape mismatch: {found.shape} vs {truth.shape}")
    if found.rank != truth.rank:
        raise PreconditionError(f"rank mismatch: {found.rank} vs {truth.rank}")

    def dense_term(d, i):
        return _cp_dense([f[:, i : i + 1] for f in d.factors], d.weights[i : i + 1]).data

    perm, _, _ = _bottleneck_assignment(_term_distances(found, truth))
    errors = [float(np.linalg.norm(dense_term(found, i) - dense_term(truth, j)))
              for i, j in enumerate(perm)]
    return RecoveryReport(
        condition_numbers=[_safe_kappa(f) for f in found.factors],
        permutation=perm,
        per_term_errors=errors,
        max_error=max(errors, default=0.0),
    )


def match_columns(found, truth):
    """Bottleneck-optimal column alignment; returns (perm, per-column errors).

    ``perm[i]`` is the truth column matched to found column ``i``.
    """
    found = np.asarray(found, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if found.shape != truth.shape:
        raise PreconditionError(f"shape mismatch: {found.shape} vs {truth.shape}")
    perm, errors, _ = _bottleneck_assignment(
        [[np.linalg.norm(f - t) for t in truth.T] for f in found.T]
    )
    return perm, errors
