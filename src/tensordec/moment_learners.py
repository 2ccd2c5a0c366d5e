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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneracyError, PreconditionError
from .jennrich import (
    JennrichConfig,
    RecoveryReport,
    _bottleneck_assignment,
    jennrich_decompose,
)
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
# Rows per GEMM in _third_moment: bounds its temporary (8 MiB at n = 16) and
# fixes the summation order. Kept apart from _MOMENT_BLOCK, which fixes the samples.
_PRODUCT_BLOCK = 4096


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

    @classmethod
    def from_transition(cls, transition, observation_means, noise_scale=0.0):
        """Build params with the stationary distribution derived from P."""
        w = stationary_distribution(np.asarray(transition, dtype=np.float64))
        return cls(
            transition=transition,
            observation_means=observation_means,
            stationary=w,
            noise_scale=noise_scale,
        )

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

    def fill(block, rows):
        rng = derive_rng(seed, TAG_SAMPLER, block)
        labels = rng.integers(params.k, size=len(rows))
        rng.standard_normal(out=rows)
        rows += np.take(params.means.T, labels, axis=0)

    out = np.empty((n_samples, params.dimension))
    return fill_blocks(out, _MOMENT_BLOCK, fill, mapper)


def _third_moment(a, b, c):
    """``E[a (x) b (x) c]`` over the rows: for each fixed block of rows, in
    order, one GEMM ``(a (x) b)^T c`` into a single accumulator. The product
    is formed from contiguous (width, rows) transposes, so its broadcast
    loops over the rows, not over a few-wide inner axis."""
    n_rows = a.shape[0]
    width = a.shape[1] * b.shape[1]
    acc = np.zeros((width, c.shape[1]))
    for start in range(0, n_rows, _PRODUCT_BLOCK):
        rows = slice(start, start + _PRODUCT_BLOCK)
        at = np.ascontiguousarray(a[rows].T)
        bt = np.ascontiguousarray(b[rows].T)
        ab_t = (at[:, None, :] * bt[None, :, :]).reshape(width, -1)
        acc += ab_t @ c[rows]
    return acc.reshape(a.shape[1], b.shape[1], c.shape[1]) / n_rows


def _corrected_t3(x, noise_cov):
    """Third moment of the rows of ``x`` less the symmetrized
    ``mean (x) noise_cov`` that zero-mean noise of that covariance adds."""
    m1 = x.mean(axis=0)
    correction = (
        np.einsum("a,bc->abc", m1, noise_cov)
        + np.einsum("b,ac->abc", m1, noise_cov)
        + np.einsum("c,ab->abc", m1, noise_cov)
    )
    return DenseTensor(_third_moment(x, x, x) - correction)


def gmm_statistic_t3(samples):
    """Unbiased estimate of ``(1/k) sum_i mu_i^(x3)`` from raw samples.

    Subtracts the symmetrized ``mean (x) identity`` correction that the
    isotropic unit-variance noise adds to the raw third moment.
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


def match_columns(found, truth):
    """Bottleneck-optimal column alignment; returns (perm, per-column errors).

    ``perm[i]`` is the truth column matched to found column ``i``.
    """
    found = np.asarray(found, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if found.shape != truth.shape:
        raise PreconditionError(f"shape mismatch: {found.shape} vs {truth.shape}")
    cost = np.linalg.norm(truth[:, None, :] - found[:, :, None], axis=0)
    perm, errors, _ = _bottleneck_assignment(cost)
    return perm, errors


def _power_means(whitened, back, k, seed):
    """Means from a whitened (k, k, k) moment, mapped back through ``back``."""
    od, residual = deflate_decompose(whitened, k, PowerConfig(seed=seed))
    return GmmLearnResult(
        means=(back @ od.vectors) * od.lambdas[None, :],
        weights=np.full(k, 1.0 / k),
        decomposition=od,
        report=RecoveryReport(deflation_residual=residual),
    )


def gmm_learn_from_moments(t, k, order=3, method="jennrich", second_moment=None,
                           seed=0, plan=None):
    """Recover mixture means from a moment tensor of odd order.

    Order 3 uses simultaneous diagonalization (or the whitened power
    method when ``method="power"``; that path needs the order-2 moment).
    Higher odd orders go through the flattening pipeline, which is what
    makes ``k`` beyond the dimension reachable. Unit directions are
    rescaled by ``(k * weight)^(1/order)`` to undo the uniform 1/k weight.
    """
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
        wres = whiten(t, second_moment, k)
        return _power_means(wres.tensor, wres.back_map, k, seed)
    if method != "jennrich":
        raise PreconditionError(f"unknown method {method!r}")
    cfg = JennrichConfig(rank=k, seed=seed)
    if order == 3:
        decomposition, report = jennrich_decompose(t, cfg)
    else:
        decomposition, report = overcomplete_decompose(t, plan=plan, config=cfg)
    scale = _component_scale(order, k, decomposition.weights)
    return GmmLearnResult(
        means=decomposition.factors[0] * scale[None, :],
        weights=np.full(k, 1.0 / k),
        decomposition=decomposition,
        report=report,
    )


def gmm_learn(samples, k, method="power", seed=0, truth=None):
    """Estimate the means of a uniform spherical mixture from samples.

    The default whitened power method is markedly more noise-tolerant than
    raw simultaneous diagonalization on the empirical third moment, so it
    is the sampled-data default; pass ``method="jennrich"`` to exercise the
    direct path. ``truth`` (a GmmParams or an (n, k) means matrix) triggers
    matched per-component error reporting. A single component skips the
    tensor machinery: the sample mean is already the moment estimator.

    The power path whitens first: with W from the second moment's top-k
    eigenspace, the (k, k, k) third moment of ``y = x W`` less the noise
    correction ``sym(mean(y) (x) W^T W)`` goes to the power method, so the
    dense n^3 moment is never built. This is the map ``whiten`` applies to
    ``gmm_statistic_t3(x)``; the two routes differ only by rounding.
    """
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
    elif method == "power":
        forward, back = _whitening_maps(gmm_second_moment(samples), samples.shape[1], k)
        t3 = _corrected_t3(samples @ forward, forward.T @ forward)
        result = _power_means(t3, back, k, seed)
    else:
        result = gmm_learn_from_moments(
            gmm_statistic_t3(samples), k, order=3, method=method, seed=seed
        )
    if truth is not None:
        true_means = truth.means if isinstance(truth, GmmParams) else np.asarray(truth)
        perm, errors = match_columns(result.means, true_means)
        result.permutation = perm
        result.mean_errors = errors
        result.max_mean_error = max(errors) if errors else 0.0
    return result


# ---------------------------------------------------------------------------
# Hidden Markov chains.

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
    k = params.k
    cum_w = np.cumsum(params.stationary)
    cum_p = np.cumsum(params.transition, axis=0)

    def fill(block, rows):
        count = len(rows)
        rng = derive_rng(seed, TAG_SAMPLER, block)
        states = np.empty((count, window), dtype=np.int64)
        states[:, 0] = np.minimum(
            np.searchsorted(cum_w, rng.random(count), side="right"), k - 1
        )
        for t in range(1, window):
            u = rng.random(count)
            cums = cum_p[:, states[:, t - 1]]
            states[:, t] = np.minimum((u[None, :] >= cums).sum(axis=0), k - 1)
        if params.noise_scale > 0:
            rng.standard_normal(out=rows)
            rows *= params.noise_scale
            rows += np.take(params.observation_means.T, states, axis=0)
        else:
            np.take(params.observation_means.T, states, axis=0, out=rows)

    out = np.empty((n_windows, window, params.dimension))
    return fill_blocks(out, _MOMENT_BLOCK, fill, mapper)


def _block_kron(windows, time_indices):
    """Per-sample Kronecker product of the observations at the given times,
    first listed time as the major index."""
    n_samples = windows.shape[0]
    out = windows[:, time_indices[0], :]
    for t in time_indices[1:]:
        out = (out[:, :, None] * windows[:, t, None, :]).reshape(n_samples, -1)
    return out


def _window_blocks(windows, context):
    windows = np.asarray(windows, dtype=np.float64)
    context = int(context)
    if windows.ndim != 3 or windows.shape[0] < 1:
        raise PreconditionError("windows must be a nonempty (N, window, n) array")
    if context < 1 or windows.shape[1] != 2 * context + 1:
        raise PreconditionError(
            f"window length {windows.shape[1]} does not match context {context}"
        )
    left = _block_kron(windows, list(range(context - 1, -1, -1)))
    center = windows[:, context, :]
    right = _block_kron(windows, list(range(context + 1, 2 * context + 1)))
    return left, center, right


def hmm_moment_tensor(windows, context=1):
    """Empirical moment tensor of fused windows, shape (n^l, n, n^l).

    Mode 1 fuses the ``context`` observations left of the center (nearest
    first), mode 2 is the center observation, mode 3 fuses the right
    observations (nearest first). The population value has rank k with the
    observation means as the center-mode factors.
    """
    return DenseTensor(_third_moment(*_window_blocks(windows, context)))


@dataclass(frozen=True)
class HmmMoments:
    """The moment statistics the chain learner consumes.

    tensor: the fused (n^l, n, n^l) window moment. center_mean: E of the
    center observation. center_future: E of center (x) fused-right block,
    shape (n, n^l). center_second: E of center (x) center, shape (n, n),
    only needed when context > 1.
    """

    tensor: DenseTensor
    center_mean: np.ndarray
    center_future: np.ndarray
    center_second: np.ndarray | None = None


def hmm_empirical_moments(windows, context=1):
    """All statistics the learner needs, estimated from the same windows."""
    left, center, right = _window_blocks(windows, context)
    n_samples = center.shape[0]
    return HmmMoments(
        tensor=DenseTensor(_third_moment(left, center, right)),
        center_mean=center.mean(axis=0),
        center_future=center.T @ right / n_samples,
        center_second=center.T @ center / n_samples,
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
        if moments.center_second is None:
            raise PreconditionError(
                "context > 1 recovery needs the center second moment"
            )
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
    inv = np.empty(len(perm), dtype=int)
    for i, j in enumerate(perm):
        inv[j] = i
    result.stationary_errors = [
        float(abs(result.stationary[inv[j]] - truth.stationary[j]))
        for j in range(len(perm))
    ]
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
