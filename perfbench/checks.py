"""Independent checks of the program's outputs.

Every check recomputes what it compares against with plain NumPy, from
the inputs or from a property the method must have; none of them compares
against a stored copy of an earlier output. A check returns None when the
output passes and a one-line reason when it does not.
"""

import itertools

import numpy as np

UNIT_NORM_TOL = 1e-10
ORTHONORMAL_TOL = 1e-8
SIMPLEX_TOL = 1e-9


def rebuild(factors, weights):
    """Dense tensor ``sum_r w_r f1_r (x) f2_r (x) ...`` by one einsum."""
    letters = "abcdefghij"[: len(factors)]
    spec = "z," + ",".join(f"{c}z" for c in letters) + "->" + letters
    return np.einsum(spec, np.asarray(weights), *[np.asarray(f) for f in factors],
                     optimize=True)


def check_cp(factors, weights, clean, rank, rtol):
    """Term count, unit-norm factor columns and the relative residual of
    the rebuilt tensor to the clean tensor."""
    weights = np.asarray(weights)
    if weights.shape != (rank,):
        return f"{weights.shape[0]} terms, expected {rank}"
    for mode, f in enumerate(factors):
        f = np.asarray(f)
        if f.shape != (clean.shape[mode], rank):
            return f"factor {mode} has shape {f.shape}"
        dev = float(np.max(np.abs(np.linalg.norm(f, axis=0) - 1.0)))
        if dev > UNIT_NORM_TOL:
            return f"factor {mode} column norms deviate from 1 by {dev:.1e}"
    rel = float(np.linalg.norm(rebuild(factors, weights) - clean) / np.linalg.norm(clean))
    if not rel <= rtol:
        return f"relative residual {rel:.2e} above {rtol:.0e}"
    return None


def check_orthonormal(vectors):
    """Columns of ``vectors`` are orthonormal."""
    v = np.asarray(vectors)
    dev = float(np.max(np.abs(v.T @ v - np.eye(v.shape[1]))))
    if dev > ORTHONORMAL_TOL:
        return f"vectors deviate from orthonormal by {dev:.1e}"
    return None


def _term(factors, weights, i):
    out = np.asarray(weights)[i]
    for f in factors:
        out = np.multiply.outer(out, np.asarray(f)[:, i])
    return out


def check_match(permutation, per_term_errors, max_error, found, truth, norm, rtol):
    """A term matching: ``permutation`` is a bijection, and the dense
    distance of each matched pair, recomputed here for the k matched pairs
    only, equals the reported error and stays below ``rtol`` times
    ``norm``, the norm of the truth tensor.

    ``found`` and ``truth`` are ``(factors, weights)`` pairs.
    """
    k = len(truth[1])
    perm = [int(j) for j in permutation]
    if sorted(perm) != list(range(k)):
        return f"permutation {perm} is not a bijection of range({k})"
    if len(per_term_errors) != k:
        return f"{len(per_term_errors)} per-term errors for {k} terms"
    worst = 0.0
    for i, j in enumerate(perm):
        dist = float(np.linalg.norm(_term(*found, i) - _term(*truth, j)))
        if abs(dist - per_term_errors[i]) > 1e-9 * norm:
            return f"term {i}: reported error {per_term_errors[i]:.3e}, recomputed {dist:.3e}"
        worst = max(worst, dist)
    if max_error != max(per_term_errors):
        return f"max_error {max_error!r} is not the largest per-term error"
    if not worst <= rtol * norm:
        return f"matched term distance {worst:.2e} above {rtol:.0e} of the tensor norm"
    return None


def best_assignment(found, truth):
    """Brute force over all k! orders: the ``perm`` (found column i goes to
    truth column perm[i]) minimizing the largest column distance, and the
    column distances under it."""
    found = np.asarray(found)
    truth = np.asarray(truth)
    k = truth.shape[1]
    best = None
    for perm in itertools.permutations(range(k)):
        errs = np.linalg.norm(found - truth[:, list(perm)], axis=0)
        if best is None or errs.max() < best[1].max():
            best = (list(perm), errs)
    return best


def _check_reported(perm, errs, permutation, errors, what):
    if [int(j) for j in permutation] != perm:
        return f"reported {what} permutation {list(permutation)}, best is {perm}"
    if np.max(np.abs(np.asarray(errors) - errs)) > 1e-9:
        return f"reported {what} errors {list(errors)} differ from recomputed {errs.tolist()}"
    return None


def check_gmm(means, true_means, permutation, mean_errors, bound):
    """Best matching of estimated to true means by brute force; the largest
    mean error is within ``bound`` and the reported matching and errors
    agree with the recomputed ones."""
    perm, errs = best_assignment(means, true_means)
    if not errs.max() <= bound:
        return f"mean error {errs.max():.3f} above {bound}"
    return _check_reported(perm, errs, permutation, mean_errors, "mean")


def check_hmm(observation_means, transition, stationary, truth, permutation,
              observation_errors, transition_errors, bound):
    """Brute-force matching of the observation means; observation and
    transition errors within ``bound`` under it and equal to the reported
    ones; stochastic transition columns and a stationary vector on the
    simplex.

    ``truth`` is ``(observation_means, transition)`` of the true chain.
    """
    true_obs, true_p = truth
    transition = np.asarray(transition)
    stationary = np.asarray(stationary)
    if np.min(transition) < 0 or np.max(np.abs(transition.sum(axis=0) - 1.0)) > SIMPLEX_TOL:
        return "transition columns are not stochastic"
    if np.min(stationary) < 0 or abs(float(stationary.sum()) - 1.0) > SIMPLEX_TOL:
        return f"stationary vector sums to {stationary.sum()!r}"
    perm, errs = best_assignment(observation_means, true_obs)
    if not errs.max() <= bound:
        return f"observation error {errs.max():.3f} above {bound}"
    aligned = np.empty_like(transition)
    aligned[np.ix_(perm, perm)] = transition
    terrs = np.linalg.norm(aligned - true_p, axis=0)
    if not terrs.max() <= bound:
        return f"transition error {terrs.max():.3f} above {bound}"
    return _check_reported(perm, errs, permutation, observation_errors, "observation") or (
        _check_reported(perm, terrs, permutation, transition_errors, "transition")
    )


def quantile(values, p):
    """Linear-interpolation quantile of an unsorted sample."""
    s = sorted(float(v) for v in values)
    h = (len(s) - 1) * p
    lo = int(np.floor(h))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (h - lo) * (s[hi] - s[lo])


def check_trial_summary(values, quantiles, fractions, thresholds):
    """Reported quantiles and below-threshold fractions recomputed from
    the returned trial values."""
    for name, p in (("q01", 0.01), ("q10", 0.1), ("q50", 0.5), ("q90", 0.9), ("q99", 0.99)):
        q = quantile(values, p)
        if abs(q - quantiles[name]) > 1e-12 * max(abs(q), 1e-300):
            return f"{name} reported {quantiles[name]!r}, recomputed {q!r}"
    if len(fractions) != len(thresholds):
        return f"{len(fractions)} fractions for {len(thresholds)} thresholds"
    n = len(values)
    for f, t in zip(fractions, thresholds):
        below = sum(1 for v in values if v < t) / n
        if f != below:
            return f"fraction below {t:.3e} reported {f!r}, recomputed {below!r}"
    return None


def recheck_trials(values, trials, recompute, rtol=1e-9):
    """Recompute the listed trials with ``recompute(trial)``."""
    for t in trials:
        want = recompute(t)
        if abs(values[t] - want) > rtol * abs(want):
            return f"trial {t} reported {values[t]!r}, recomputed {want!r}"
    return None


def sigma_k_of_products(mats, k):
    """k-th singular value of the column-wise Kronecker product of the
    matrices, built column by column."""
    cols = []
    for i in range(mats[0].shape[1]):
        col = mats[0][:, i]
        for m in mats[1:]:
            col = np.kron(col, m[:, i])
        cols.append(col)
    return float(np.linalg.svd(np.column_stack(cols), compute_uv=False)[k - 1])


def projection_norm(spanning, x):
    """Norm of the orthogonal projection of ``x`` onto the column span of
    ``spanning``, by least squares."""
    coef = np.linalg.lstsq(spanning, x, rcond=None)[0]
    return float(np.linalg.norm(spanning @ coef))
