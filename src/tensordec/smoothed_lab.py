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
thread pool over blocks of trials cannot change any number.
"""

import functools
from dataclasses import dataclass, field

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
_DEFAULT_C_GRID = tuple(float(c) for c in np.logspace(-6, 0, 13))


def perturb_matrix(base, rho, rng):
    """One rho-perturbation of a factor matrix (or of one vector): each entry
    gets independent N(0, rho^2/n) noise, n the number of rows."""
    base = np.asarray(base, dtype=np.float64)
    n = base.shape[0]
    return base + rng.normal(0.0, rho / np.sqrt(n), base.shape)


def _rho_power(rho, order):
    """``rho**order`` of a positive finite rho; PreconditionError for any
    other rho, or where the power overflows float64."""
    if not 0 < rho < np.inf:
        raise PreconditionError(f"rho must be positive and finite, got {rho}")
    try:
        return rho**order
    except OverflowError:
        raise PreconditionError(f"rho^order overflows: rho={rho}, order={order}") from None


def _check_budget(entries, what):
    if entries > _ELEMENT_BUDGET:
        raise PreconditionError(f"{what} of {entries} entries exceeds {_ELEMENT_BUDGET}")


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
    values in one call. Blocks of _TRIAL_BLOCK trials go to ``mapper``, and
    each stacks at most ``stack`` inputs per call. Raises PreconditionError
    when a trial overflows to a non-finite value."""
    def fill(block, rows):
        first = block * _TRIAL_BLOCK + 1
        # errstate is per thread; the finiteness check below reports overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(rows), stack):
                part = rows[start : start + stack]
                part[:] = evaluate(np.stack([
                    draw(derive_rng(seed, TAG_LAB, first + start + i))
                    for i in range(len(part))
                ]))

    values = fill_blocks(np.empty(trials), _TRIAL_BLOCK, fill, mapper)
    if not np.all(np.isfinite(values)):
        raise PreconditionError("a trial value overflows float64; lower rho or delta")
    return values


@dataclass
class KrSigmaResult:
    """Per-trial least singular values of the perturbed Khatri-Rao chain."""

    n: int
    k: int
    order: int
    rho: float
    delta: float
    values: np.ndarray
    unperturbed_sigma: float | None = None
    c_grid: tuple = _DEFAULT_C_GRID
    fraction_below: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def summary(self):
        q = np.quantile(self.values, [0.01, 0.1, 0.5, 0.9, 0.99])
        out = {
            "n": self.n,
            "k": self.k,
            "order": self.order,
            "rho": self.rho,
            "delta": self.delta,
            "trials": int(self.values.size),
            "quantiles": {
                "q01": q[0], "q10": q[1], "q50": q[2], "q90": q[3], "q99": q[4]
            },
            "threshold_scale": self.rho**self.order / self.n**self.order,
            "c_grid": list(self.c_grid),
            "fraction_below": [float(f) for f in self.fraction_below],
        }
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
    alongside the perturbed samples. The fraction of trials below
    c * rho^order / n^order is reported over a log-spaced grid of c.
    Trials draw from per-trial derived streams and go to ``mapper`` in
    fixed blocks, so it may be the map of a thread pool; each block takes
    its values from one stacked SVD. A chain of more than 2^22 entries
    (n^order * k) is rejected.
    """
    n, k, order, trials = int(n), int(k), int(order), int(trials)
    if n < 1 or k < 1 or order < 1 or trials < 1:
        raise PreconditionError("n, k, order, trials must all be positive")
    if k > n**order:
        raise PreconditionError(
            f"k={k} exceeds n^order={n**order}: sigma_k is identically zero"
        )
    _check_budget(n**order * k, "a Khatri-Rao chain (n^order * k)")
    rho = float(rho)
    scale = _rho_power(rho, order) / n**order

    def sigma_k(chains):
        return np.linalg.svd(chains, compute_uv=False)[:, k - 1]

    if base == "zero":
        bases = [np.zeros((n, k)) for _ in range(order)]
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
        return functools.reduce(khatri_rao, [perturb_matrix(b, rho, rng) for b in bases])

    # one stacked SVD holds at most the element budget, and at least one chain
    stack = max(1, _ELEMENT_BUDGET // (n**order * k))
    values = _trial_values(draw, sigma_k, trials, seed, mapper, stack)

    delta = 1.0 - k / n**order
    grid = np.asarray(_DEFAULT_C_GRID)
    fractions = np.array([np.mean(values < c * scale) for c in grid])
    return KrSigmaResult(
        n=n, k=k, order=order, rho=rho, delta=delta, values=values,
        unperturbed_sigma=unperturbed, c_grid=_DEFAULT_C_GRID,
        fraction_below=fractions,
    )


@dataclass
class ProjectionResult:
    """Per-trial projection norms of a perturbed rank-one tensor."""

    n: int
    order: int
    delta: float
    rho: float
    subspace_dim: int
    values: np.ndarray
    c_grid: tuple = _DEFAULT_C_GRID
    fraction_below_dim_scale: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fraction_below_sqrt_scale: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def summary(self):
        q = np.quantile(self.values, [0.01, 0.1, 0.5, 0.9, 0.99])
        return {
            "n": self.n,
            "order": self.order,
            "delta": self.delta,
            "rho": self.rho,
            "subspace_dim": self.subspace_dim,
            "trials": int(self.values.size),
            "quantiles": {
                "q01": q[0], "q10": q[1], "q50": q[2], "q90": q[3], "q99": q[4]
            },
            "c_grid": list(self.c_grid),
            "dim_scale": self.rho**self.order / self.n**self.order,
            "fraction_below_dim_scale": [float(f) for f in self.fraction_below_dim_scale],
            "sqrt_scale": self.rho**self.order / self.n ** (self.order / 2.0),
            "fraction_below_sqrt_scale": [float(f) for f in self.fraction_below_sqrt_scale],
        }


def projection_experiment(n, order, delta, rho, trials, subspace="gaussian",
                          base_point="zero", seed=0, mapper=map):
    """Sample ``norm(P_W(x1~ (x) ... (x) xl~))`` for a fixed subspace W.

    W has dimension ceil(delta * n^order) and is drawn once per experiment:
    either a uniformly random subspace (QR of a Gaussian matrix) or the
    span of the first coordinate directions, the structured family the
    bound must also survive. Base points are zero vectors or the all-ones
    direction; each trial perturbs them independently. Reported lower-tail
    fractions use thresholds c * rho^l / n^l and c * rho^l / n^(l/2).
    A basis of more than 2^22 entries (n^order * dim) is rejected.
    """
    n, order, trials = int(n), int(order), int(trials)
    if order not in (1, 2):
        raise PreconditionError("projection experiments cover orders 1 and 2")
    if n < 1 or trials < 1:
        raise PreconditionError("n and trials must be positive")
    rho = float(rho)
    delta = float(delta)
    rho_power = _rho_power(rho, order)
    ambient = n**order
    if not np.isfinite(delta * ambient):
        raise PreconditionError(f"delta * n^order must be finite, got {delta} * {ambient}")
    dim = int(np.ceil(delta * ambient))
    if dim < 1:
        raise PreconditionError("delta * n^order must be at least 1")
    if dim > ambient:
        raise PreconditionError("subspace dimension exceeds the ambient space")
    _check_budget(ambient * dim, "a projection basis (n^order * dim)")

    setup_rng = derive_rng(seed, TAG_LAB, 0)
    if subspace == "gaussian":
        g = setup_rng.standard_normal((ambient, dim))
        basis, _ = np.linalg.qr(g)
    elif subspace == "coordinate":
        basis = np.eye(ambient, dim)
    else:
        raise PreconditionError(f"unknown subspace family {subspace!r}")

    if base_point == "zero":
        base = np.zeros(n)
    elif base_point == "ones":
        base = np.ones(n) / np.sqrt(n)
    else:
        raise PreconditionError(f"unknown base point {base_point!r}")

    def draw(rng):
        vecs = [perturb_matrix(base, rho, rng) for _ in range(order)]
        return vecs[0] if order == 1 else np.outer(vecs[0], vecs[1]).ravel()

    def projection_norms(flats):
        return np.linalg.norm(flats @ basis, axis=1)

    values = _trial_values(draw, projection_norms, trials, seed, mapper)

    grid = np.asarray(_DEFAULT_C_GRID)
    dim_scale = rho_power / n**order
    sqrt_scale = rho_power / n ** (order / 2.0)
    return ProjectionResult(
        n=n, order=order, delta=delta, rho=rho, subspace_dim=dim, values=values,
        c_grid=_DEFAULT_C_GRID,
        fraction_below_dim_scale=np.array(
            [np.mean(values < c * dim_scale) for c in grid]
        ),
        fraction_below_sqrt_scale=np.array(
            [np.mean(values < c * sqrt_scale) for c in grid]
        ),
    )


# ---------------------------------------------------------------------------
# Pivot constructions.

@dataclass(frozen=True)
class PivotBasis:
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
        worst = 0.0
        for j in range(self.count):
            v = self.vectors[:, j]
            worst = max(worst, float(np.max(np.abs(v))) - 1.0)
            worst = max(worst, abs(abs(v[self.pivots[j]]) - 1.0))
            for jp in range(j):
                worst = max(worst, abs(v[self.pivots[jp]]))
        return worst

    def validate(self, tol=1e-10):
        if len(set(self.pivots)) != self.count:
            raise PreconditionError("pivot indices must be distinct")
        worst = self.max_violation()
        if worst > tol:
            raise PreconditionError(f"pivot invariants violated by {worst:.3e}")


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
    by an orthonormal null-space factor, so conditioning never degrades.
    """
    b = _orthonormal_columns(basis).copy()
    n, r = b.shape
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
        if b.shape[1] == 1:
            b = np.zeros((n, 0))
            break
        null = _null_space(b[row : row + 1, :])
        b = b @ null
    return PivotBasis(vectors=np.column_stack(vectors), pivots=tuple(pivots))


@dataclass(frozen=True)
class PivotBasisL2:
    """Rounds of pivot matrices, one valid row per round.

    Round t holds matrices whose pivots share row ``rows[t]``, with
    distinct pivot columns inside the round; every matrix of a later round
    vanishes on all earlier rounds' rows entirely, and within a round each
    matrix vanishes at the earlier pivots of that round. All entries are
    bounded by 1 with the pivot entry exactly +-1.
    """

    rows: tuple
    pivot_columns: tuple   # tuple per round
    matrices: tuple        # tuple per round of (n, n) arrays

    @property
    def rounds(self):
        return len(self.rows)

    @property
    def count(self):
        return sum(len(cols) for cols in self.pivot_columns)

    def row_counts(self):
        return [len(cols) for cols in self.pivot_columns]

    def max_violation(self):
        worst = 0.0
        for t in range(self.rounds):
            for j, mat in enumerate(self.matrices[t]):
                worst = max(worst, float(np.max(np.abs(mat))) - 1.0)
                worst = max(
                    worst, abs(abs(mat[self.rows[t], self.pivot_columns[t][j]]) - 1.0)
                )
                for jp in range(j):
                    worst = max(
                        worst, abs(mat[self.rows[t], self.pivot_columns[t][jp]])
                    )
                for tp in range(t):
                    worst = max(worst, float(np.max(np.abs(mat[self.rows[tp], :]))))
        return worst

    def validate(self, tol=1e-10):
        if len(set(self.rows)) != self.rounds:
            raise PreconditionError("round rows must be distinct")
        for cols in self.pivot_columns:
            if len(set(cols)) != len(cols):
                raise PreconditionError("pivot columns must be distinct within a round")
        worst = self.max_violation()
        if worst > tol:
            raise PreconditionError(f"pivot invariants violated by {worst:.3e}")


def build_pivot_basis_l2(basis, n):
    """Row-staircase pivot matrices for a subspace of n x n matrices.

    ``basis`` holds orthonormal columns of length n^2 (row-major). Each
    round runs the vector construction on the current subspace, keeps the
    extracted matrices whose pivot cell lands in the most common pivot
    row, then restricts the subspace to matrices vanishing on that whole
    row and recurses until nothing is left.
    """
    n = int(n)
    b = _orthonormal_columns(basis).copy()
    if b.shape[0] != n * n:
        raise PreconditionError("basis rows must have length n*n")
    rows = []
    round_cols = []
    round_mats = []
    while b.shape[1] > 0:
        flat = build_pivot_basis(b)
        pivot_rows = [p // n for p in flat.pivots]
        counts = np.bincount(pivot_rows, minlength=n)
        best_row = int(np.argmax(counts))
        keep = [j for j, pr in enumerate(pivot_rows) if pr == best_row]
        rows.append(best_row)
        round_cols.append(tuple(int(flat.pivots[j] % n) for j in keep))
        round_mats.append(
            tuple(flat.vectors[:, j].reshape(n, n).copy() for j in keep)
        )
        row_coords = b[best_row * n : (best_row + 1) * n, :]
        null = _null_space(row_coords)
        if null.shape[1] == 0:
            break
        b = b @ null
    return PivotBasisL2(
        rows=tuple(rows),
        pivot_columns=tuple(round_cols),
        matrices=tuple(round_mats),
    )
