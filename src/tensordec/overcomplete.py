"""Decomposition of higher-order tensors beyond the side-mode dimensions.

An order-l tensor whose rank exceeds its mode sizes can still be handled
by fusing modes: partition the modes into three groups, flatten to order
3, decompose there, and split each grouped factor column back into its
per-mode parts with a best rank-one fit. Rank-one terms survive the fusion
because a grouped factor column of a rank-one term is exactly the
Khatri-Rao (flattened outer) product of its per-mode factors.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .jennrich import jennrich_decompose
from .tensor_core import CpDecomposition, _als_refine, _cp_dense, flatten_to_order3

SUSPECT_RESIDUAL = 1e-3


@dataclass(frozen=True)
class FlatteningPlan:
    """Assignment of the l modes to the three flattened modes.

    ``groups`` holds three nonempty tuples of 0-based mode indices that
    together partition ``range(order)``; within a group, indices fuse
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
        if sorted(flat) != list(range(self.order)):
            raise PreconditionError(
                f"groups {self.groups} do not partition {self.order} modes"
            )


def default_plan(shape):
    """Contiguous mode grouping maximizing the two fused side dimensions.

    Among all contiguous three-way splits, picks the one whose smaller
    fused side product is largest (that product caps the recoverable
    rank), breaking ties toward balance and then toward the split with
    floor((l-1)/2) modes in each side group.
    """
    shape = tuple(int(s) for s in shape)
    ell = len(shape)
    if ell < 3:
        raise PreconditionError("flattening needs an order-3 or higher tensor")
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


def unflatten_rank_one(v, mode_sizes):
    """Best rank-one fit of a flattened vector, split over the given modes.

    Returns ``(vectors, residual)`` where the outer product of ``vectors``
    is the fitted rank-one tensor (the fitted scale rides on the first
    vector, the others are unit) and ``residual`` is the relative Frobenius
    error of the fit. A residual far from zero means the input was not
    close to rank one.

    Two modes are solved exactly by a truncated SVD. Three or more use the
    package's ALS refinement at rank one, started from each unfolding's top
    left singular vector with the fitted scale on the first, so an exact
    rank-one input stops after one sweep. Where that start fits a scale of
    exactly zero, the fibres through the largest-magnitude entry start it
    instead.
    """
    v = np.asarray(v, dtype=np.float64)
    sizes = [int(s) for s in mode_sizes]
    if v.ndim != 1:
        raise PreconditionError("unflatten_rank_one takes a flat vector")
    if any(s < 1 for s in sizes):
        raise PreconditionError("mode sizes must be positive")
    if v.shape[0] != int(np.prod(sizes)):
        raise PreconditionError(
            f"vector of length {v.shape[0]} does not fill modes {sizes}"
        )
    if len(sizes) == 1:
        return [v.copy()], 0.0
    total = float(np.linalg.norm(v))
    if total == 0.0:
        vecs = [np.zeros(s) for s in sizes]
        return vecs, 0.0
    block = v.reshape(sizes)
    if len(sizes) == 2:
        u, s, vh = np.linalg.svd(block, full_matrices=False)
        vectors = [u[:, 0] * float(s[0]), vh[0]]
        # tail singular values give the residual without cancellation
        residual = float(np.linalg.norm(s[1:]) / total)
        return vectors, residual
    unfoldings = (np.moveaxis(block, j, 0).reshape(n, -1) for j, n in enumerate(sizes))
    start = [np.linalg.svd(m, full_matrices=False)[0][:, :1] for m in unfoldings]
    scale = float(np.vdot(block, _cp_dense(start, np.ones(1)).data))
    if scale == 0.0:
        # Tied top singular vectors can contract the block to zero, a start
        # ALS never leaves; start from the fibres through the largest entry.
        peak = np.unravel_index(np.argmax(np.abs(block)), block.shape)
        start = []
        for j in range(block.ndim):
            fibre = block[peak[:j] + (slice(None),) + peak[j + 1 :]][:, None]
            start.append(fibre / np.linalg.norm(fibre))
        scale = float(np.vdot(block, _cp_dense(start, np.ones(1)).data))
    start[0] = start[0] * scale
    fitted = _als_refine(block, start)
    norms = [float(np.linalg.norm(f)) or 1.0 for f in fitted[1:]]
    columns = [fitted[0] * math.prod(norms)]
    columns += [f / norm for f, norm in zip(fitted[1:], norms)]
    residual = np.linalg.norm(block - _cp_dense(columns, np.ones(1)).data) / total
    return [c[:, 0] for c in columns], float(residual)


def overcomplete_decompose(t, plan=None, config=None):
    """Decompose an order >= 3 tensor through a three-way flattening.

    Flattens ``t`` per ``plan`` (default: :func:`default_plan`), decomposes
    the order-3 result, then splits every grouped factor column back into
    per-mode unit vectors. Per-term unflattening residuals land in the
    report; terms with residual above 1e-3 are listed as suspect. With
    the identity plan on an order-3 tensor this is exactly the order-3
    decomposition.
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
    k = d3.rank
    factors = [np.zeros((t.shape[mode], k)) for mode in range(t.order)]
    residuals = []
    for i in range(k):
        worst = 0.0
        for gidx, group in enumerate(plan.groups):
            col = d3.factors[gidx][:, i]
            if len(group) == 1:
                parts = [col]
            else:
                parts, resid = unflatten_rank_one(
                    col, [t.shape[mode] for mode in group]
                )
                worst = max(worst, resid)
            for mode, vec in zip(group, parts):
                factors[mode][:, i] = vec
        residuals.append(worst)
    decomposition = CpDecomposition(factors, d3.weights)
    report.unflatten_residuals = residuals
    report.suspect_terms = [
        i for i, r in enumerate(residuals) if r > SUSPECT_RESIDUAL
    ]
    return decomposition, report
