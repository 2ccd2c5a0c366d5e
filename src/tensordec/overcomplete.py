"""Decomposition of higher-order tensors beyond the side-mode dimensions.

An order-l tensor whose rank exceeds its mode sizes can still be handled
by fusing modes: partition the modes into three groups, flatten to order
3, decompose there, and split each grouped factor column back into its
per-mode parts with a rank-one fit. Rank-one terms survive the fusion
because a grouped factor column of a rank-one term is exactly the
Khatri-Rao (flattened outer) product of its per-mode factors.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .jennrich import jennrich_decompose
from .matrix_ops import _split_rank_one
from .tensor_core import CpDecomposition, _als_refine, flatten_to_order3

SUSPECT_RESIDUAL = 1e-3


@dataclass(frozen=True)
class FlatteningPlan:
    """Assignment of the l modes to the three flattened modes.

    ``groups`` holds three nonempty tuples of 0-based integer mode indices
    that together partition ``range(order)``; within a group, indices fuse
    lexicographically in the listed order.
    """

    order: int
    groups: tuple

    def __post_init__(self):
        if len(self.groups) != 3:
            raise PreconditionError("a flattening plan needs exactly 3 groups")
        flat = [i for g in self.groups for i in g]
        if any(len(g) == 0 for g in self.groups):
            raise PreconditionError("every group must be nonempty")
        # a float index equals its int but cannot index a shape
        if sorted(flat) != list(range(self.order)) or not all(
            hasattr(i, "__index__") for i in flat
        ):
            raise PreconditionError(
                f"groups {self.groups} do not partition {self.order} modes"
            )


def default_plan(shape):
    """Contiguous mode grouping maximizing the two fused side dimensions.

    Among all contiguous three-way splits, picks the one whose smaller
    fused side product is largest (that product caps the recoverable
    rank), breaking ties toward balance and then toward the split with
    floor((l-1)/2) modes in each side group. ``overcomplete_decompose``, the
    caller, has checked that the shape has three or more modes.
    """
    shape = tuple(int(s) for s in shape)
    ell = len(shape)
    q = (ell - 1) // 2
    best = None
    for a in range(1, ell - 1):
        for b in range(a + 1, ell):
            p1 = int(np.prod(shape[:a]))
            p2 = int(np.prod(shape[a:b]))
            score = (
                min(p1, p2),
                -abs(np.log(p1) - np.log(p2)),
                (a, b) == (q, 2 * q),
                (-a, -b),
            )
            if best is None or score > best[0]:
                best = (score, (a, b))
    a, b = best[1]
    groups = (tuple(range(a)), tuple(range(a, b)), tuple(range(b, ell)))
    return FlatteningPlan(order=ell, groups=groups)


def unflatten_rank_one(columns, mode_sizes):
    """Rank-one split of each column of a grouped factor matrix over the
    given modes.

    ``columns`` is (N, k), each column a flattened tensor of shape
    ``mode_sizes``: the caller, ``overcomplete_decompose``, passes a group's
    float64 factor matrix, whose N ``flatten_to_order3`` made the product of
    the group's sizes. Returns ``(factors, residuals)``: column i of the
    (n_j, k) matrices ``factors[j]`` holds the vectors whose outer product
    is the fitted rank-one tensor of column i (the fitted scale rides on
    the first, the others are unit), and ``residuals[i]`` is that fit's
    relative Frobenius error. A residual far from zero means the column was
    not close to rank one. A zero column fits as zero vectors, residual 0.

    The modes are peeled off in order by one stacked rank-one split of all
    k columns each (the rank-one case of the TT-SVD sweep); the product of
    the top singular values rides on the first vector. For one or two modes
    that is the best fit. The peels' tails are mutually orthogonal, so the
    misfit is ``sqrt(sum_j (s_1...s_{j-1} tail_j)^2)``, with ``s_j`` the
    top singular value and ``tail_j`` the norm of the rest of peel j.
    """
    k = columns.shape[1]
    # 1-D norms: an axis-wise norm sums in another order and moves last bits
    totals = np.array([np.linalg.norm(c) for c in columns.T])
    zero = totals == 0.0
    vectors, scale, misfit, rest = [], np.ones(k), np.zeros(k), columns
    for n in mode_sizes[:-1]:
        left, top, rest, tail = _split_rank_one(rest.T.reshape(k, n, len(rest) // n))
        vectors.append(left)
        misfit = np.hypot(misfit, scale * tail)
        scale *= top
    vectors.append(rest)
    vectors[0] = vectors[0] * scale
    factors = [np.ascontiguousarray(v) for v in vectors]
    for factor in factors:
        factor[:, zero] = 0.0
    return factors, misfit / np.where(zero, 1.0, totals)


def overcomplete_decompose(t, plan=None, config=None):
    """Decompose an order >= 3 tensor through a three-way flattening.

    Flattens ``t`` per ``plan`` (default: :func:`default_plan`), decomposes
    the order-3 result, then splits each group's factor matrix back into
    per-mode factors. Per-term unflattening residuals (the largest over the
    groups) land in the report; terms with residual above 1e-3 are listed
    as suspect. When a group has three or more modes, where the peel is not
    the best rank-one fit, the package's ALS refinement then polishes all
    terms at once on ``t`` itself; the residuals and suspect terms describe
    the split before that polish. With the identity plan on an order-3
    tensor this is exactly the order-3 decomposition.
    """
    if t.order < 3:
        raise PreconditionError("overcomplete_decompose expects order >= 3")
    plan = plan or default_plan(t.shape)
    if plan.order != t.order:
        raise PreconditionError(
            f"plan covers {plan.order} modes, tensor has {t.order}"
        )
    if t.order == 3 and plan.groups == ((0,), (1,), (2,)):
        return jennrich_decompose(t, config)

    flat = flatten_to_order3(t, *plan.groups)
    d3, report = jennrich_decompose(flat, config)
    factors = [None] * t.order
    group_residuals = []
    for group, columns in zip(plan.groups, d3.factors):
        parts, residuals = unflatten_rank_one(columns, [t.shape[mode] for mode in group])
        for mode, part in zip(group, parts):
            factors[mode] = part
        group_residuals.append(residuals)
    residuals = np.max(group_residuals, axis=0).tolist()
    weights = d3.weights
    if d3.rank and max(map(len, plan.groups)) >= 3:
        factors = _als_refine(t.data, [factors[0] * weights, *factors[1:]])
        weights = np.ones(d3.rank)
    decomposition = CpDecomposition(factors, weights)
    report.unflatten_residuals = residuals
    report.suspect_terms = [
        i for i, r in enumerate(residuals) if r > SUSPECT_RESIDUAL
    ]
    return decomposition, report
