"""Monte Carlo lab for the random-matrix facts behind overcomplete recovery.

The experiments here measure, at desk scale, the quantities the flattening
pipeline relies on:

* least singular values of Khatri-Rao products of randomly perturbed
  factor matrices (including an adversarial two-basis instance that is
  exactly rank-deficient before perturbation);
* norms of projections of perturbed rank-one tensors onto fixed
  subspaces, whose lower tail controls the leave-one-out distance;
* explicit pivot bases witnessing that any subspace contains
  well-spread vectors: max-entry 1, pivot entry exactly +-1, zeros at
  all earlier pivots. The matrix variant extracts one valid row per
  round and zeroes it out before recursing.

Experiments draw one stream per trial from counter-derived seeds, so a
thread pool over blocks of trials cannot change any number. Each block is
one stacked call, and both experiments return a ``TrialResult``: the
per-trial values and one summary of their lower tail.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .matrix_ops import _null_space
from .seeding import TAG_LAB, derive_rng, fill_blocks
from .tensor_core import khatri_rao

_PIVOT_EMPTY_TOL = 1e-10
# Trials per pool task. Each block gets its values from one stacked LAPACK or
# BLAS call, which releases the GIL, so the blocks of a pool run in parallel.
_TRIAL_BLOCK = 64
# Largest array, in entries, an experiment may build (32 MiB): a Khatri-Rao
# chain, the chains one stacked SVD holds, or a projection's (n^order, dim) basis.
_ELEMENT_BUDGET = 2**22
_C_GRID = tuple(float(c) for c in np.logspace(-6, 0, 13))
_LOG_TINY = math.log(np.finfo(np.float64).tiny)


def perturb_matrix(base, rho, rng):
    """One rho-perturbation of a factor matrix (or of one vector): each entry
    gets independent N(0, rho^2/n) noise, n the number of rows."""
    base = np.asarray(base, dtype=np.float64)
    n = base.shape[0]
    return base + rng.normal(0.0, rho / np.sqrt(n), base.shape)


def _int_text(x):
    """An int for a message: exact below 10^15, else "about 10^D", D its
    rounded logarithm, since ``str()`` refuses an int past 4300 digits."""
    return str(x) if x < 10**15 else f"about 10^{round(math.log10(x))}"


def _check_rho(rho, order, n=None):
    """PreconditionError unless rho is positive and finite and ``rho**order``
    fits in float64. Given n, also unless the lab's smallest threshold scale,
    ``rho**order / n**order``, is at least the least normal float64: below
    it the trials underflow to 0 and the summary's fractions mean nothing.
    That scale is compared in logarithms, which take an int n of any size."""
    if not 0 < rho < np.inf:
        raise PreconditionError(f"rho must be positive and finite, got {rho}")
    try:
        rho**order
    except OverflowError:
        raise PreconditionError(f"rho^order overflows: rho={rho}, order={order}") from None
    if n is not None and order * (math.log(rho) - math.log(n)) < _LOG_TINY:
        raise PreconditionError(
            f"rho^order / n^order underflows float64: rho={rho}, n={_int_text(n)}, order={order}"
        )


def _check_budget(entries, what):
    if entries > _ELEMENT_BUDGET:
        raise PreconditionError(
            f"{what} of {_int_text(entries)} entries exceeds {_ELEMENT_BUDGET}"
        )


def _subspace_basis(n, order, dim, seed, what, coordinate=False):
    """Orthonormal (n^order, dim) basis of a subspace: the first ``dim``
    coordinate directions, or the Q of a Gaussian matrix drawn from derived
    stream 0, the lab's set-up stream. Raises PreconditionError unless
    1 <= dim <= n^order and the basis, called ``what``, fits the budget."""
    ambient = n**order
    if not 1 <= dim <= ambient:
        raise PreconditionError(f"dim must lie in [1, {_int_text(ambient)}]")
    _check_budget(ambient * dim, what)
    if coordinate:
        return np.eye(ambient, dim)
    return np.linalg.qr(derive_rng(seed, TAG_LAB, 0).standard_normal((ambient, dim)))[0]


def rotation_pair_basis(n):
    """Orthonormal basis of 45-degree rotations in coordinate pairs.

    Column 2i is (e_{2i} + e_{2i+1})/sqrt(2), column 2i+1 the difference.
    Needs even n. Stacked next to the identity it gives 2n unit vectors
    with sum of outer squares 2I, so the columnwise self Khatri-Rao
    product of [I | basis] is exactly rank-deficient.
    """
    n = int(n)
    if n < 2 or n % 2:
        raise PreconditionError("the paired-rotation basis needs even n >= 2")
    q = np.zeros((n, n))
    s = 1.0 / np.sqrt(2.0)
    for i in range(0, n, 2):
        q[i, i] = s
        q[i + 1, i] = s
        q[i, i + 1] = s
        q[i + 1, i + 1] = -s
    return q


def _trial_values(draw, evaluate, trials, seed, mapper, stack=_TRIAL_BLOCK):
    """Trial t < trials turns derived stream t + 1 (stream 0 is the set-up's)
    into its input ``draw(rng)``; ``evaluate`` maps a stack of inputs to their
    values in one call. Blocks of min(_TRIAL_BLOCK, stack) trials go to
    ``mapper``, and each is one stacked call. Raises PreconditionError when a
    trial overflows to a non-finite value."""
    block = min(_TRIAL_BLOCK, stack)

    def fill(index, rows):
        first = index * block + 1
        # errstate is per thread; the finiteness check below reports overflow
        with np.errstate(over="ignore", invalid="ignore"):
            rows[:] = evaluate(np.stack([
                draw(derive_rng(seed, TAG_LAB, first + i)) for i in range(len(rows))
            ]))

    values = fill_blocks(np.empty(trials), block, fill, mapper)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("a trial value overflows float64; lower rho or delta")
    return values


@dataclass
class TrialResult:
    """Per-trial values of a lab experiment.

    ``summary()`` echoes ``params``, then gives the trial count, five
    quantiles and the c grid, and for each ``(key, fractions_key, scale)``
    of ``scales`` the scale and the share of values below c * scale, per c
    of the grid. It reads ``values`` afresh on each call.
    """

    params: dict
    scales: tuple
    values: np.ndarray
    unperturbed_sigma: float | None = None

    def summary(self):
        q = np.quantile(self.values, [0.01, 0.1, 0.5, 0.9, 0.99])
        out = {
            **self.params,
            "trials": int(self.values.size),
            "quantiles": {"q01": q[0], "q10": q[1], "q50": q[2], "q90": q[3], "q99": q[4]},
            "c_grid": list(_C_GRID),
        }
        for key, fractions_key, scale in self.scales:
            out[key] = scale
            out[fractions_key] = [float(np.mean(self.values < c * scale)) for c in _C_GRID]
        if self.unperturbed_sigma is not None:
            out["unperturbed_sigma"] = self.unperturbed_sigma
        return out


def kr_sigma_experiment(n, k, order, rho, trials, base="zero", seed=0, mapper=map):
    """Sample sigma_k of the order-fold Khatri-Rao product of perturbed
    factor matrices.

    ``base="zero"`` perturbs zero matrices, so each factor is a plain
    Gaussian matrix. ``base="adversarial-basis"`` (order 2, k = 2n, even n
    only) starts from the identity next to the paired-rotation basis; the
    unperturbed product has sigma_k exactly 0, and its value is reported
    alongside the perturbed samples. ``summary()`` reports the fraction of
    trials below c * rho^order / n^order over a log-spaced grid of c.
    Trials draw from per-trial derived streams and go to ``mapper`` in
    fixed blocks, so it may be the map of a thread pool; each block takes
    its values from one stacked SVD. A chain (n^order * k) or its factors
    (order * n * k) of more than 2^22 entries are rejected.
    """
    n, k, order, trials = int(n), int(k), int(order), int(trials)
    if n < 1 or k < 1 or order < 1 or trials < 1:
        raise PreconditionError("n, k, order, trials must all be positive")
    # bounds order before n^order is formed: a huge order would take forever
    _check_budget(order * n * k, "the chain's factors (order * n * k)")
    if k > n**order:
        raise PreconditionError(
            f"k={_int_text(k)} exceeds n^order={_int_text(n**order)}: "
            "sigma_k is identically zero"
        )
    _check_budget(n**order * k, "a Khatri-Rao chain (n^order * k)")
    rho = float(rho)
    _check_rho(rho, order, n)

    def sigma_k(chains):
        return np.linalg.svd(chains, compute_uv=False)[:, k - 1]

    if base == "zero":
        bases = [np.zeros((n, k))] * order
        unperturbed = None
    elif base == "adversarial-basis":
        if order != 2:
            raise PreconditionError("the adversarial base is an order-2 construction")
        if k != 2 * n:
            raise PreconditionError("the adversarial base needs k = 2n")
        u = np.column_stack([np.eye(n), rotation_pair_basis(n)])
        bases = [u, u]
        unperturbed = float(sigma_k(functools.reduce(khatri_rao, bases)[None])[0])
    else:
        raise PreconditionError(f"unknown base {base!r}")

    def draw(rng):
        # one perturbed factor alive at a time, however long the chain
        return functools.reduce(khatri_rao, (perturb_matrix(b, rho, rng) for b in bases))

    # one stacked SVD holds at most the element budget, and at least one chain
    stack = max(1, _ELEMENT_BUDGET // (n**order * k))
    values = _trial_values(draw, sigma_k, trials, seed, mapper, stack)
    return TrialResult(
        params={"n": n, "k": k, "order": order, "rho": rho, "delta": 1.0 - k / n**order},
        scales=(("threshold_scale", "fraction_below", rho**order / n**order),),
        values=values,
        unperturbed_sigma=unperturbed,
    )


def projection_experiment(n, order, delta, rho, trials, subspace="gaussian",
                          base_point="zero", seed=0, mapper=map):
    """Sample ``norm(P_W(x1~ (x) ... (x) xl~))`` for a fixed subspace W.

    W has dimension ceil(delta * n^order) and is drawn once per experiment:
    either a uniformly random subspace (QR of a Gaussian matrix) or the
    span of the first coordinate directions, the structured family the
    bound must also survive. Base points are zero vectors or the all-ones
    direction; each trial perturbs them independently. Reported lower-tail
    fractions use thresholds c * rho^l / n^l and c * rho^l / n^(l/2).
    delta must lie in (0, 1]; a basis of more than 2^22 entries
    (n^order * dim) is rejected.
    """
    n, order, trials = int(n), int(order), int(trials)
    if order not in (1, 2):
        raise PreconditionError("projection experiments cover orders 1 and 2")
    if n < 1 or trials < 1:
        raise PreconditionError("n and trials must be positive")
    rho = float(rho)
    delta = float(delta)
    _check_rho(rho, order, n)
    if not 0 < delta <= 1:
        raise PreconditionError(f"delta must lie in (0, 1], got {delta}")
    if subspace not in ("gaussian", "coordinate"):
        raise PreconditionError(f"unknown subspace family {subspace!r}")
    what = "a projection basis (n^order * dim)"
    # dim >= 1, so an n^order over budget is too: checked before the product
    _check_budget(n**order, what)
    # the exact product, rounded once
    num, den = delta.as_integer_ratio()
    dim = math.ceil(num * n**order / den)
    basis = _subspace_basis(n, order, dim, seed, what, coordinate=subspace == "coordinate")

    if base_point == "zero":
        base = np.zeros((n, 1))
    elif base_point == "ones":
        base = np.ones((n, 1)) / np.sqrt(n)
    else:
        raise PreconditionError(f"unknown base point {base_point!r}")

    def draw(rng):
        vecs = [perturb_matrix(base, rho, rng) for _ in range(order)]
        return functools.reduce(khatri_rao, vecs)[:, 0]

    def projection_norms(flats):
        return np.linalg.norm(flats @ basis, axis=1)

    values = _trial_values(draw, projection_norms, trials, seed, mapper)
    return TrialResult(
        params={"n": n, "order": order, "delta": delta, "rho": rho, "subspace_dim": dim},
        scales=(
            ("dim_scale", "fraction_below_dim_scale", rho**order / n**order),
            ("sqrt_scale", "fraction_below_sqrt_scale", rho**order / n ** (order / 2.0)),
        ),
        values=values,
    )


# ---------------------------------------------------------------------------
# Pivot constructions.

class _PivotChecks:
    """The invariants of both pivot constructions: distinct pivots
    (``_distinct()``) and a ``max_violation()`` within tolerance.
    ``PivotBasis`` holds the one staircase check; ``PivotBasisL2`` runs it
    on each round and adds only what ties the rounds to their rows."""

    def invariants_pass(self, tol=1e-10):
        return bool(self._distinct() and self.max_violation() <= tol)

    def validate(self, tol=1e-10):
        if not self.invariants_pass(tol):
            raise PreconditionError(
                f"pivot invariants violated: distinct={self._distinct()}, "
                f"max violation {self.max_violation():.3e}"
            )


@dataclass(frozen=True)
class PivotBasis(_PivotChecks):
    """Vectors spanning a subspace with a staircase of pivot coordinates.

    For each j: max-magnitude entry at most 1, entry at its own pivot
    exactly +-1, and zero (to tolerance) at the pivots of all earlier
    vectors. Pivot indices are pairwise distinct.
    """

    vectors: np.ndarray
    pivots: tuple

    @property
    def count(self):
        return int(self.vectors.shape[1])

    def max_violation(self):
        """Worst deviation from the three defining properties."""
        v = np.abs(self.vectors)
        # at_pivots[jp, j] = |v_j| at the pivot of vector jp
        at_pivots = v[np.asarray(self.pivots, dtype=np.intp)]
        return float(np.max(np.concatenate([
            np.max(v, axis=0) - 1.0,
            np.abs(np.diag(at_pivots) - 1.0),
            at_pivots[np.triu_indices(self.count, 1)],
        ]), initial=0.0))

    def _distinct(self):
        return len(set(self.pivots)) == self.count


def _orthonormal_columns(basis):
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2 or basis.shape[1] < 1:
        raise PreconditionError("basis must be a matrix with at least one column")
    gram = basis.T @ basis
    if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-8:
        raise PreconditionError("basis columns must be orthonormal")
    return basis


def build_pivot_basis(basis):
    """Staircase pivot vectors for the span of the given orthonormal basis.

    Repeatedly takes the basis column with the largest magnitude entry,
    divides it by that entry (so the pivot value is exactly +-1 and
    nothing exceeds 1), records the pivot index, and restricts the
    subspace to vectors vanishing there. Restriction multiplies the basis
    by orthonormal columns of a reflection, so conditioning never degrades.
    """
    b = _orthonormal_columns(basis)
    r = b.shape[1]
    vectors = []
    pivots = []
    for step in range(r):
        flat_idx = int(np.argmax(np.abs(b)))
        row, col = np.unravel_index(flat_idx, b.shape)
        peak = b[row, col]
        if abs(peak) < _PIVOT_EMPTY_TOL:
            raise DegeneracyError(
                "restricted subspace became numerically empty",
                diagnostics={"achieved": step, "requested": r},
            )
        vectors.append(b[:, col] / peak)
        pivots.append(int(row))
        # the Householder reflection H taking e_1 to the direction of b[row]:
        # H's other columns span b[row]'s orthogonal complement, so b H
        # without its first column vanishes at the pivot, in O(n r)
        v = b[row].copy()
        v[0] += math.copysign(np.linalg.norm(v), v[0])
        b = (b - np.outer(b @ v, 2.0 * v / (v @ v)))[:, 1:]
    return PivotBasis(vectors=np.column_stack(vectors), pivots=tuple(pivots))


@dataclass(frozen=True)
class PivotBasisL2(_PivotChecks):
    """Rounds of pivot matrices, one valid row per round.

    Round t is a ``PivotBasis`` whose vectors are n x n matrices flattened
    row-major and whose pivots are the flat cells ``rows[t] * n + col``, all
    in row ``rows[t]``. Every matrix of a later round also vanishes on all
    earlier rounds' rows entirely.
    """

    rows: tuple
    rounds: tuple   # one PivotBasis per row

    @property
    def count(self):
        return sum(r.count for r in self.rounds)

    def max_violation(self):
        """Worst deviation of a round from its own staircase, or worst entry
        of a round on an earlier round's row."""
        n = math.isqrt(self.rounds[0].vectors.shape[0])
        worst = 0.0
        for t, r in enumerate(self.rounds):
            on_earlier_rows = np.abs(r.vectors.reshape(n, n, -1)[list(self.rows[:t])])
            worst = max(worst, r.max_violation(), float(np.max(on_earlier_rows, initial=0.0)))
        return worst

    def _distinct(self):
        """Rows distinct, and each round's pivots distinct and in its row."""
        n = math.isqrt(self.rounds[0].vectors.shape[0])
        return len(set(self.rows)) == len(self.rounds) and all(
            r._distinct() and all(p // n == row for p in r.pivots)
            for row, r in zip(self.rows, self.rounds)
        )


def build_pivot_basis_l2(basis, n):
    """Row-staircase pivot matrices for a subspace of n x n matrices.

    ``basis`` holds orthonormal columns of length n^2 (row-major). Each
    round runs the vector construction on the current subspace, keeps the
    extracted matrices whose pivot cell lands in the most common pivot
    row, then restricts the subspace to matrices vanishing on that whole
    row and recurses until nothing is left.
    """
    n = int(n)
    if n < 1:
        raise PreconditionError(f"n must be at least 1, got {n}")
    b = _orthonormal_columns(basis)
    if b.shape[0] != n * n:
        raise PreconditionError("basis rows must have length n*n")
    rows = []
    rounds = []
    while b.shape[1] > 0:
        flat = build_pivot_basis(b)
        pivot_rows = [p // n for p in flat.pivots]
        counts = np.bincount(pivot_rows, minlength=n)
        best_row = int(np.argmax(counts))
        keep = [j for j, pr in enumerate(pivot_rows) if pr == best_row]
        rows.append(best_row)
        rounds.append(PivotBasis(vectors=flat.vectors[:, keep],
                                 pivots=tuple(flat.pivots[j] for j in keep)))
        row_coords = b[best_row * n : (best_row + 1) * n, :]
        null = _null_space(row_coords)
        if null.shape[1] == 0:
            break
        b = b @ null
    return PivotBasisL2(rows=tuple(rows), rounds=tuple(rounds))
