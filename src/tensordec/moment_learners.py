"""Method-of-moments learners built on the tensor decompositions.

Two generative models are covered:

* spherical Gaussian mixtures with uniform component weights and unit
  noise variance: the third moment, after subtracting the symmetrized
  ``mean (x) identity`` correction, equals ``(1/k) sum_i mu_i^(x3)``, so a
  tensor decomposition hands back the component means;
* hidden Markov chains with Gaussian-noised observation means: a window
  of 2l+1 consecutive observations, with the l left observations fused,
  the center kept, and the l right observations fused, has an order-3
  moment tensor of rank k whose mode factors are conditional expectations
  given the center state. The center-mode factors are the observation
  means; the transition matrix follows from the right-mode factors.

The rank-one terms of either statistic determine per-term scale splits
only up to the usual CP rescaling ambiguity. The mixture convention
(uniform weights) resolves it through an odd root of the recovered term
weight; the chain convention (stationary weights, stochastic columns)
resolves it through two auxiliary moments, the center observation mean
and the center-future cross moment, both estimated from the same windows.

Memory is the N-row sample array plus O(block) scratch. The samplers fill
their rows in blocks of _MOMENT_BLOCK rows, one derived stream each, and
add the state means one row chunk at a time. The learners reduce the
samples to their moments in one pass of fixed blocks of _PRODUCT_BLOCK
rows, so no temporary grows with the sample count and the summation order
is fixed. ``gmm_statistic_t3`` and ``hmm_moment_tensor`` have no caller in
the learners; they stay because the benchmark's traced run wraps them by
name.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .jennrich import JennrichConfig, RecoveryReport, jennrich_decompose, match_columns
from .matrix_ops import _null_space, pseudoinverse
from .overcomplete import overcomplete_decompose
from .power_method import PowerConfig, _whitening_maps, deflate_decompose, whiten
from .seeding import TAG_SAMPLER, derive_rng, fill_blocks
from .tensor_core import (
    CpDecomposition,
    DenseTensor,
    _als_refine,
    _cp_dense,
    khatri_rao,
    synthesize,
)

_MOMENT_BLOCK = 100_000
# Rows per block of every row-blocked pass (sampler means, moment sums):
# bounds its scratch (8 MiB for the third moment at n = 16) and fixes the
# summation order. Kept apart from _MOMENT_BLOCK, which fixes the samples.
_PRODUCT_BLOCK = 4096


def _row_blocks(n_rows):
    """Slices of _PRODUCT_BLOCK rows covering ``n_rows`` rows, in order."""
    return [slice(start, start + _PRODUCT_BLOCK) for start in range(0, n_rows, _PRODUCT_BLOCK)]


# ---------------------------------------------------------------------------
# Parameter containers.

@dataclass(frozen=True)
class GmmParams:
    """Spherical mixture with uniform weights 1/k and unit noise variance.

    ``means`` has one component mean per column, shape (n, k).
    """

    means: np.ndarray

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        if means.ndim != 2 or min(means.shape) < 1:
            raise PreconditionError("means must be a nonempty (n, k) matrix")
        if not np.all(np.isfinite(means)):
            raise PreconditionError("means must be finite")
        object.__setattr__(self, "means", means)

    @property
    def dimension(self):
        return int(self.means.shape[0])

    @property
    def k(self):
        return int(self.means.shape[1])


def stationary_distribution(p):
    """Stationary vector of a column-stochastic matrix (unique chain only)."""
    p = np.asarray(p, dtype=np.float64)
    null = _null_space(p - np.eye(p.shape[0]))
    if null.shape[1] != 1:
        raise PreconditionError(
            "transition matrix does not have a unique stationary distribution"
        )
    w = null[:, 0]
    w = w / np.sum(w)
    if np.any(w <= 0):
        raise PreconditionError("stationary distribution is not strictly positive")
    return w


@dataclass(frozen=True)
class HmmParams:
    """Hidden chain with k states and Gaussian-noised observation means.

    ``transition`` is column-stochastic: entry (i, j) is the probability of
    moving to state i from state j. ``observation_means`` has the state
    means as columns, shape (n, k). ``stationary`` must be the stationary
    distribution of the chain; windows are sampled with the chain started
    from it. Observations are ``mean + noise_scale * N(0, I)``.
    """

    transition: np.ndarray
    observation_means: np.ndarray
    stationary: np.ndarray
    noise_scale: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=np.float64)
        o = np.asarray(self.observation_means, dtype=np.float64)
        w = np.asarray(self.stationary, dtype=np.float64)
        k = p.shape[0]
        if p.shape != (k, k) or k < 1:
            raise PreconditionError("transition must be square and nonempty")
        if np.any(p < -1e-12):
            raise PreconditionError("transition entries must be nonnegative")
        if np.max(np.abs(p.sum(axis=0) - 1.0)) > 1e-8:
            raise PreconditionError("transition columns must sum to 1")
        if o.ndim != 2 or o.shape[1] != k:
            raise PreconditionError("observation_means must have one column per state")
        if w.shape != (k,) or np.any(w <= 0):
            raise PreconditionError("stationary must be strictly positive of length k")
        if abs(w.sum() - 1.0) > 1e-10:
            raise PreconditionError("stationary must sum to 1")
        if np.linalg.norm(p @ w - w, ord=1) > 1e-10:
            raise PreconditionError("stationary vector is not stationary for P")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(o)) and np.all(np.isfinite(w))):
            raise PreconditionError("parameters must be finite")
        if not 0 <= self.noise_scale < np.inf:
            raise PreconditionError("noise_scale must be nonnegative and finite")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "observation_means", o)
        object.__setattr__(self, "stationary", w)

    @property
    def k(self):
        return int(self.transition.shape[0])

    @property
    def dimension(self):
        return int(self.observation_means.shape[0])

    def reversed_transition(self):
        """Backward chain ``diag(w) P^T diag(w)^{-1}``, also column-stochastic."""
        w = self.stationary
        return (w[:, None] * self.transition.T) / w[None, :]


# ---------------------------------------------------------------------------
# Gaussian mixtures.

def gmm_sample(params, n_samples, seed=0, mapper=map):
    """Draw ``n_samples`` points, rows of an (N, n) array.

    Samples are generated in fixed-size blocks, each from its own derived
    stream and written in place into its rows of the output, so ``mapper``
    may run blocks on a thread pool without changing a single byte of it.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise PreconditionError("need at least one sample")
    means = params.means.T

    def fill(block, rows):
        rng = derive_rng(seed, TAG_SAMPLER, block)
        labels = rng.integers(params.k, size=len(rows))
        rng.standard_normal(out=rows)
        for chunk in _row_blocks(len(rows)):
            rows[chunk] += means[labels[chunk]]

    out = np.empty((n_samples, params.dimension))
    return fill_blocks(out, _MOMENT_BLOCK, fill, mapper)


def _product_sum(a, b, c):
    """``sum over the rows of a (x) b (x) c`` as the (a*b widths, c width)
    matrix ``(a (x) b)^T c``: one GEMM, formed from contiguous (width, rows)
    transposes, so its broadcast loops over the rows, not over a few-wide
    inner axis. Callers hand it one row block at a time."""
    return khatri_rao(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)) @ c


def _corrected_t3(samples, w):
    """Third moment of the rows of ``y = samples @ w`` less the symmetrized
    ``mean(y) (x) w^T w`` that isotropic unit-variance noise adds.

    One pass of fixed row blocks: each block is mapped through ``w`` and
    added into the sums of y and of y (x) y (x) y, so the (N, width) y is
    never formed.
    """
    n_rows, width = samples.shape[0], w.shape[1]
    total = np.zeros(width)
    acc = np.zeros((width * width, width))
    for rows in _row_blocks(n_rows):
        y = samples[rows] @ w
        total += y.sum(axis=0)
        acc += _product_sum(y, y, y)
    m1 = total / n_rows
    noise_cov = w.T @ w
    correction = (
        np.einsum("a,bc->abc", m1, noise_cov)
        + np.einsum("b,ac->abc", m1, noise_cov)
        + np.einsum("c,ab->abc", m1, noise_cov)
    )
    return DenseTensor(acc.reshape(width, width, width) / n_rows - correction)


def gmm_statistic_t3(samples):
    """Unbiased estimate of ``(1/k) sum_i mu_i^(x3)`` from raw samples.

    Subtracts the symmetrized ``mean (x) identity`` correction that the
    isotropic unit-variance noise adds to the raw third moment: the
    whitened accumulator of ``gmm_learn`` at ``W = I``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise PreconditionError("samples must be a nonempty (N, n) array")
    return _corrected_t3(samples, np.eye(samples.shape[1]))


def gmm_second_moment(samples):
    """Estimate of ``(1/k) sum_i mu_i^(x2)``: raw second moment minus I."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[1]
    mom2 = samples.T @ samples / samples.shape[0]
    return mom2 - np.eye(n)


def gmm_statistic_exact(params, order=3):
    """Population moment tensor ``(1/k) sum_i mu_i^(x order)``, by one GEMM
    as in ``synthesize``: with M the (n, k) means and s modes as rows, the
    unfolding is ``(M (.) ... (.) M) diag(1/k) (M (.) ... (.) M)^T``, with s
    and order - s Khatri-Rao factors."""
    order = int(order)
    if order < 2:
        raise PreconditionError("order must be at least 2")
    return _cp_dense([params.means] * order, np.full(params.k, 1.0 / params.k))


def _component_scale(order, k, weights):
    """Real odd root undoing the uniform 1/k weight: |k w|^(1/order) signed."""
    scaled = k * np.asarray(weights, dtype=np.float64)
    return np.sign(scaled) * np.abs(scaled) ** (1.0 / order)


@dataclass
class GmmLearnResult:
    means: np.ndarray
    weights: np.ndarray
    decomposition: object = None
    report: RecoveryReport | None = None
    permutation: list | None = None
    mean_errors: list | None = None
    max_mean_error: float | None = None


def _check_method(method):
    if method not in ("power", "jennrich"):
        raise PreconditionError(f"unknown method {method!r}")


def _whitened_means(whitened, back, k, method, seed):
    """Means ``(back @ V) * lam`` from a whitened (k, k, k) moment
    ``sum_i lam_i v_i^(x3)``. Jennrich's canonical form gives the three
    columns of a symmetric term one sign, so the sign rides on the weight."""
    if method == "power":
        d, residual = deflate_decompose(whitened, k, PowerConfig(seed=seed))
        vectors, lambdas = d.vectors, d.lambdas
        report = RecoveryReport(deflation_residual=residual)
    else:
        d, report = jennrich_decompose(whitened, JennrichConfig(rank=k, seed=seed))
        vectors, lambdas = d.factors[0], d.weights
    return GmmLearnResult(means=(back @ vectors) * lambdas[None, :],
                          weights=np.full(k, 1.0 / k), decomposition=d, report=report)


def gmm_learn_from_moments(t, k, order=3, method="jennrich", second_moment=None,
                           seed=0):
    """Recover mixture means from a moment tensor of odd order.

    ``method="power"`` (order 3 only) whitens ``t`` against the order-2
    moment first. ``method="jennrich"`` decomposes ``t`` through the default
    flattening plan (at order 3 plain simultaneous diagonalization), which
    makes ``k`` beyond the dimension reachable.
    Unit directions are rescaled by ``(k * weight)^(1/order)`` to undo the
    uniform 1/k weight.
    """
    _check_method(method)
    k = int(k)
    order = int(order)
    if order < 3 or order % 2 == 0:
        raise PreconditionError("order must be odd and at least 3")
    if t.order != order:
        raise PreconditionError(f"tensor has order {t.order}, expected {order}")
    if method == "power":
        if order != 3:
            raise PreconditionError("the power path handles order 3 only")
        if second_moment is None:
            raise PreconditionError("the power path needs the order-2 moment")
        return _whitened_means(*whiten(t, second_moment, k), k, method, seed)
    decomposition, report = overcomplete_decompose(
        t, config=JennrichConfig(rank=k, seed=seed)
    )
    scale = _component_scale(order, k, decomposition.weights)
    return GmmLearnResult(
        means=decomposition.factors[0] * scale[None, :],
        weights=np.full(k, 1.0 / k),
        decomposition=decomposition,
        report=report,
    )


def gmm_learn(samples, k, method="power", seed=0, truth=None):
    """Estimate the means of a uniform spherical mixture from samples.

    Both methods whiten first: with W from the second moment's top-k
    eigenspace, the (k, k, k) third moment of ``y = x W`` less the noise
    correction ``sym(mean(y) (x) W^T W)`` is orthogonally decomposable, so
    the dense n^3 moment is never built, nor the whitened (N, k) copy: each
    fixed block of rows is whitened and reduced in one pass. This is the map
    ``whiten`` applies to ``gmm_statistic_t3(x)``; the two routes differ
    only by rounding.
    ``method`` picks the decomposer of the whitened moment: the power
    method (the default) or simultaneous diagonalization (``"jennrich"``).
    ``truth`` (a GmmParams or an (n, k) means matrix) triggers matched
    per-component error reporting. A single component skips the tensor
    machinery: the sample mean is already the moment estimator.
    """
    _check_method(method)
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise PreconditionError("samples must be a nonempty (N, n) array")
    k = int(k)
    if k < 1:
        raise PreconditionError("k must be positive")
    if k == 1:
        result = GmmLearnResult(
            means=samples.mean(axis=0)[:, None], weights=np.ones(1)
        )
    else:
        forward, back = _whitening_maps(gmm_second_moment(samples), samples.shape[1], k)
        t3 = _corrected_t3(samples, forward)
        result = _whitened_means(t3, back, k, method, seed)
    if truth is not None:
        true_means = truth.means if isinstance(truth, GmmParams) else np.asarray(truth)
        perm, errors = match_columns(result.means, true_means)
        result.permutation = perm
        result.mean_errors = errors
        result.max_mean_error = max(errors) if errors else 0.0
    return result


# ---------------------------------------------------------------------------
# Hidden Markov chains.

def _chain_states(draws, cum_w, cum_p):
    """(rows, window) state paths from (window, rows) uniform draws: row 0
    of ``draws`` picks the stationary start, row t the step from t - 1."""
    k = cum_w.size
    window, count = draws.shape
    states = np.empty((count, window), dtype=np.int64)
    states[:, 0] = np.minimum(np.searchsorted(cum_w, draws[0], side="right"), k - 1)
    for t in range(1, window):
        cums = cum_p[:, states[:, t - 1]]
        states[:, t] = np.minimum((draws[t][None, :] >= cums).sum(axis=0), k - 1)
    return states


def hmm_sample(params, n_windows, window=3, seed=0, mapper=map):
    """Independent stationary windows of ``window`` consecutive observations.

    Returns an (N, window, n) array. ``window`` must be odd and >= 3.
    Windows are independent of each other, generated in fixed-size blocks
    with per-block derived streams (thread-pool safe, see gmm_sample).
    """
    n_windows = int(n_windows)
    window = int(window)
    if n_windows < 1:
        raise PreconditionError("need at least one window")
    if window < 3 or window % 2 == 0:
        raise PreconditionError("window must be odd and at least 3")
    cum_w = np.cumsum(params.stationary)
    cum_p = np.cumsum(params.transition, axis=0)
    means = params.observation_means.T
    noisy = params.noise_scale > 0

    def fill(block, rows):
        rng = derive_rng(seed, TAG_SAMPLER, block)
        # row t holds the draws of step t, in the stream order of one call per step
        draws = rng.random((window, len(rows)))
        if noisy:
            rng.standard_normal(out=rows)
            rows *= params.noise_scale
        for chunk in _row_blocks(len(rows)):
            states = _chain_states(draws[:, chunk], cum_w, cum_p)
            if noisy:
                rows[chunk] += means[states]
            else:
                rows[chunk] = means[states]

    out = np.empty((n_windows, window, params.dimension))
    return fill_blocks(out, _MOMENT_BLOCK, fill, mapper)


def _window_blocks(windows, context):
    """Left, center and right blocks of (rows, 2 context + 1, n) windows: each
    side is the per-window Kronecker product, nearest to the center major.
    All three are transposed views of contiguous (width, rows) arrays, the
    layout ``_product_sum`` and the Kronecker products loop fastest over."""
    by_time = np.ascontiguousarray(windows.transpose(1, 2, 0))
    left, right = (
        functools.reduce(khatri_rao, [by_time[t] for t in times]).T
        for times in (range(context - 1, -1, -1), range(context + 1, 2 * context + 1))
    )
    return left, by_time[context].T, right


def hmm_moment_tensor(windows, context=1):
    """Empirical moment tensor of fused windows, shape (n^l, n, n^l).

    Mode 1 fuses the ``context`` observations left of the center (nearest
    first), mode 2 is the center observation, mode 3 fuses the right
    observations (nearest first). The population value has rank k with the
    observation means as the center-mode factors.
    """
    return hmm_empirical_moments(windows, context).tensor


@dataclass(frozen=True)
class HmmMoments:
    """The moment statistics the chain learner consumes.

    tensor: the fused (n^l, n, n^l) window moment. center_mean: E of the
    center observation. center_future: E of center (x) fused-right block,
    shape (n, n^l). center_second: E of center (x) center, shape (n, n),
    read when context > 1.
    """

    tensor: DenseTensor
    center_mean: np.ndarray
    center_future: np.ndarray
    center_second: np.ndarray


def hmm_empirical_moments(windows, context=1):
    """All statistics the learner needs, estimated from the same windows.

    One pass of fixed row blocks: each block's fused Kronecker sides are
    built for that block alone and added into the four sums, so no
    temporary grows with the number of windows.
    """
    windows = np.asarray(windows, dtype=np.float64)
    context = int(context)
    if windows.ndim != 3 or windows.shape[0] < 1:
        raise PreconditionError("windows must be a nonempty (N, window, n) array")
    if context < 1 or windows.shape[1] != 2 * context + 1:
        raise PreconditionError(
            f"window length {windows.shape[1]} does not match context {context}"
        )
    n_rows, _, n = windows.shape
    side = n**context
    sums = [np.zeros(n), np.zeros((n, n)), np.zeros((n, side)), np.zeros((side * n, side))]
    for rows in _row_blocks(n_rows):
        left, center, right = _window_blocks(windows[rows], context)
        parts = (center.sum(axis=0), center.T @ center, center.T @ right,
                 _product_sum(left, center, right))
        for total, part in zip(sums, parts):
            total += part
    mean, second, future, third = (total / n_rows for total in sums)
    return HmmMoments(
        tensor=DenseTensor(third.reshape(side, n, side)),
        center_mean=mean,
        center_future=future,
        center_second=second,
    )


def hmm_population_factors(params, context=1):
    """Population factor matrices (left, center, right) of the fused moment.

    Column i of the center factor is observation mean i; the left and
    right factors are conditional expectations of the fused blocks given
    the center state, built by the recursions ``L_d = KR(O, L_{d-1}) P_rev``
    and ``R_d = KR(O, R_{d-1}) P``.
    """
    context = int(context)
    if context < 1:
        raise PreconditionError("context must be at least 1")
    o = params.observation_means
    left = o @ params.reversed_transition()
    right = o @ params.transition
    for _ in range(context - 1):
        left = khatri_rao(o, left) @ params.reversed_transition()
        right = khatri_rao(o, right) @ params.transition
    return left, o.copy(), right


def hmm_exact_moments(params, context=1):
    """Population HmmMoments for the given parameters."""
    left, center, right = hmm_population_factors(params, context)
    w = params.stationary
    second = (center * w[None, :]) @ center.T
    if params.noise_scale > 0:
        second = second + params.noise_scale**2 * np.eye(params.dimension)
    return HmmMoments(
        tensor=_cp_dense([left, center, right], w),
        center_mean=center @ w,
        center_future=(center * w[None, :]) @ right.T,
        center_second=second,
    )


@dataclass
class HmmLearnResult:
    observation_means: np.ndarray
    stationary: np.ndarray
    transition: np.ndarray | None = None
    report: RecoveryReport | None = None
    consistency: dict = field(default_factory=dict)
    permutation: list | None = None
    observation_errors: list | None = None
    transition_errors: list | None = None
    stationary_errors: list | None = None


def _to_simplex(v, what):
    v = np.asarray(v, dtype=np.float64).copy()
    v[v < 0] = 0.0
    total = v.sum()
    if total <= 0:
        raise DegeneracyError(f"{what} collapsed to zero during projection")
    return v / total


def hmm_learn_from_moments(moments, k, context=1, seed=0, noise_scale=0.0,
                           truth=None):
    """Recover chain parameters from the fused moment statistics.

    Decomposes the window tensor, polishes the factors with alternating
    least squares against it, then fixes the per-term scale splits:
    expanding the center mean in the recovered center directions gives
    ``w_i * beta_i`` (beta the signed norm of observation mean i), the
    center-future cross moment gives ``w_i * beta_i * gamma_i``, and for
    context 1 the column sums of the transition matrix pin down beta
    through one linear solve. Columns of the transition estimate and the
    stationary estimate are projected back to the simplex. For context
    above 1 the transition is out of reach here; the center second moment
    (minus ``noise_scale**2 I``) closes the scale system instead.

    ``consistency`` holds ``cross_moment_offdiag``, the off-diagonal share
    of the center-future cross moment in the recovered directions, and
    ``fit_residual``, the relative Frobenius error of the polished terms
    against the window tensor.
    """
    k = int(k)
    context = int(context)
    t = moments.tensor
    cfg = JennrichConfig(rank=k, seed=seed)
    d3, report = jennrich_decompose(t, cfg)
    # The eigenvector route is consistent but does not minimize the fit
    # residual; a few ALS sweeps on the sampled moment cut the factor noise.
    start = [d3.factors[0] * d3.weights[None, :], *d3.factors[1:]]
    d3 = CpDecomposition(_als_refine(t.data, start), np.ones(k))
    _, center_hat, right_hat = d3.factors

    center_pinv = pseudoinverse(center_hat)
    right_pinv = pseudoinverse(right_hat)
    d_vec = center_pinv @ moments.center_mean            # w_i * beta_i
    mixed = center_pinv @ moments.center_future @ right_pinv.T
    s_vec = np.diag(mixed).copy()                        # w_i * beta_i * gamma_i
    off_diag = mixed - np.diag(np.diag(mixed))
    consistency = {
        "cross_moment_offdiag": float(np.linalg.norm(off_diag))
        / max(float(np.linalg.norm(mixed)), 1e-300),
        "fit_residual": float(np.linalg.norm(t.data - synthesize(d3).data))
        / max(float(np.linalg.norm(t.data)), 1e-300),
    }
    if np.min(np.abs(d_vec)) < 1e-12 * max(np.max(np.abs(d_vec)), 1e-300):
        raise DegeneracyError(
            "a recovered component has vanishing weight-scale product",
            diagnostics={"d_vec": d_vec.tolist()},
        )

    if context == 1:
        gamma = s_vec / d_vec
        e_mat = center_pinv @ right_hat
        try:
            inv_beta = np.linalg.solve(e_mat.T, 1.0 / gamma)
        except np.linalg.LinAlgError as exc:
            raise DegeneracyError(
                "transition scale system is singular", diagnostics={}
            ) from exc
        beta = 1.0 / inv_beta
        w_raw = d_vec / beta
        transition = (e_mat * gamma[None, :]) / beta[:, None]
        transition = np.column_stack(
            [_to_simplex(transition[:, j], f"transition column {j}") for j in range(k)]
        )
    else:
        n = center_hat.shape[0]
        adjusted = moments.center_second - float(noise_scale) ** 2 * np.eye(n)
        q_vec = np.diag(center_pinv @ adjusted @ center_pinv.T).copy()  # w beta^2
        beta = q_vec / d_vec
        w_raw = d_vec**2 / q_vec
        transition = None

    stationary = _to_simplex(w_raw, "stationary distribution")
    observation_means = center_hat * beta[None, :]

    result = HmmLearnResult(
        observation_means=observation_means,
        stationary=stationary,
        transition=transition,
        report=report,
        consistency=consistency,
    )
    if truth is not None:
        _match_hmm(result, truth)
    return result


def _match_hmm(result, truth):
    perm, obs_errors = match_columns(
        result.observation_means, truth.observation_means
    )
    result.permutation = perm
    result.observation_errors = obs_errors
    inv = np.argsort(perm)
    stationary_errors = np.abs(result.stationary[inv] - truth.stationary)
    result.stationary_errors = stationary_errors.tolist()
    if result.transition is not None:
        aligned = result.transition[np.ix_(inv, inv)]
        result.transition_errors = [
            float(np.linalg.norm(aligned[:, j] - truth.transition[:, j]))
            for j in range(len(perm))
        ]


def hmm_learn(windows, k, context=1, seed=0, noise_scale=0.0, truth=None):
    """Estimate chain parameters from sampled windows.

    Builds the fused moment statistics from the windows and hands off to
    :func:`hmm_learn_from_moments`. ``noise_scale`` matters only for
    context above 1, where the center second moment needs its noise floor
    removed.
    """
    moments = hmm_empirical_moments(windows, context)
    return hmm_learn_from_moments(
        moments, k, context=context, seed=seed, noise_scale=noise_scale, truth=truth
    )
