"""Dense tensors, rank decompositions, and the multilinear kernel ops.

A tensor of order ``l`` is stored dense in row-major order. A CP
decomposition is a list of factor matrices (one per mode, columns indexed
by term) together with per-term weights; instances are always held in
canonical form: unit-norm columns, magnitudes folded into the weights,
and each column's sign fixed so that its first nonzero entry is positive.
``_cp_dense`` is the one evaluator of dense rank-one and CP tensors, and
``khatri_rao`` the one column-wise Kronecker product.
"""

import functools
import json
import math

import numpy as np

from .errors import FormatError, PreconditionError
from .matrix_ops import pseudoinverse

_TNSR_MAGIC_KEYS = {"order", "shape"}
# ALS refinement: sweep cap, and the relative change of a sweep that stops it.
_POLISH_SWEEPS = 10
_POLISH_TOL = 1e-12


class DenseTensor:
    """Immutable dense real tensor of order >= 1.

    Parameters
    ----------
    data : array-like
        Real entries; one copy is stored as contiguous float64 in
        row-major order. NaN and infinity are rejected.
    """

    __slots__ = ("_data",)

    def __init__(self, data):
        self._adopt(np.array(data, dtype=np.float64, order="C"))

    def _adopt(self, arr):
        # keeps ``arr`` itself: callers pass a C-order float64 array nothing else holds
        if arr.ndim < 1:
            raise PreconditionError("tensor order must be at least 1")
        if any(s < 1 for s in arr.shape):
            raise PreconditionError("all mode sizes must be positive")
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("tensor entries must be finite")
        arr.flags.writeable = False
        self._data = arr
        return self

    @property
    def data(self):
        """Read-only float64 ndarray holding the entries."""
        return self._data

    @property
    def order(self):
        return self._data.ndim

    @property
    def shape(self):
        return self._data.shape

    def __repr__(self):
        return f"DenseTensor(shape={self.shape})"


class CpDecomposition:
    """Weighted sum of rank-one terms, stored in canonical form.

    ``factors[j]`` is the mode-``j`` factor matrix of shape ``(n_j, rank)``;
    column ``i`` across all modes, scaled by ``weights[i]``, is term ``i``.
    The constructor canonicalizes: each column is rescaled to unit norm with
    the magnitude folded into the weight, and each column's sign is flipped
    if needed so its first nonzero entry is positive (sign flips fold into
    the weight as well).
    """

    __slots__ = ("_factors", "_weights")

    def __init__(self, factors, weights):
        mats = [np.array(f, dtype=np.float64) for f in factors]
        w = np.array(weights, dtype=np.float64)
        if len(mats) < 1:
            raise PreconditionError("a decomposition needs at least one mode")
        if w.ndim != 1:
            raise PreconditionError("weights must be a flat sequence")
        k = w.shape[0]
        for j, f in enumerate(mats):
            if f.ndim != 2:
                raise PreconditionError(f"factor matrix {j} must be 2-D")
            if f.shape[1] != k:
                raise PreconditionError(
                    f"factor matrix {j} has {f.shape[1]} columns, expected {k}"
                )
            if f.shape[0] < 1:
                raise PreconditionError(f"factor matrix {j} has no rows")
            if not np.all(np.isfinite(f)):
                raise PreconditionError(f"factor matrix {j} has non-finite entries")
        if not np.all(np.isfinite(w)):
            raise PreconditionError("weights must be finite")

        for f in mats:
            norms = np.linalg.norm(f, axis=0)
            norms[norms == 0.0] = 1.0
            f /= norms
            w *= norms
            first = f[np.argmax(f != 0.0, axis=0), np.arange(k)]
            signs = np.where(first < 0.0, -1.0, 1.0)
            f *= signs
            w *= signs
            f.flags.writeable = False
        if not np.all(np.isfinite(w)):
            raise PreconditionError("a term's magnitude overflows float64")
        w.flags.writeable = False
        self._factors = tuple(mats)
        self._weights = w

    @property
    def order(self):
        return len(self._factors)

    @property
    def rank(self):
        return int(self._weights.shape[0])

    @property
    def shape(self):
        return tuple(f.shape[0] for f in self._factors)

    @property
    def factors(self):
        """Tuple of read-only (n_j, rank) factor matrices."""
        return self._factors

    @property
    def weights(self):
        return self._weights

    def __repr__(self):
        return f"CpDecomposition(shape={self.shape}, rank={self.rank})"


def synthesize(d):
    """Evaluate a CpDecomposition to the dense tensor it represents, by one
    GEMM: with ``(.)`` the Khatri-Rao product and modes 1..s as rows, the
    unfolding is ``(F_1 (.) ... (.) F_s) diag(w) (F_s+1 (.) ... (.) F_l)^T``;
    s = 1 is ``T_(1) = F_1 diag(w) (F_2 (.) ... (.) F_l)^T`` (Kolda & Bader 2009).
    """
    return _cp_dense(d.factors, d.weights)


def _cp_dense(factors, weights):
    """``sum_i w_i f_1[:, i] (x) ... (x) f_l[:, i]`` as a DenseTensor over the
    GEMM's output, split at the s that minimizes the larger group's size, so
    that neither Khatri-Rao temporary nears the output's size times the rank."""
    shape = tuple(f.shape[0] for f in factors)
    split = min(range(1, len(shape) + 1),
                key=lambda s: max(math.prod(shape[:s]), math.prod(shape[s:])))
    # a (1, k) row of ones starts each product: at order 1 it is the trailing one
    lead, trail = (functools.reduce(khatri_rao, group, np.ones((1, len(weights))))
                   for group in (factors[:split], factors[split:]))
    return DenseTensor.__new__(DenseTensor)._adopt(((lead * weights) @ trail.T).reshape(shape))


def frobenius_norm(t):
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(t.data.ravel()))


def slice_combination(t, a):
    """Contract the third mode of an order-3 tensor with the vector ``a``.

    Returns the matrix ``M`` with ``M[i1, i2] = sum_i3 T[i1, i2, i3] * a[i3]``,
    a linear combination of the frontal slices of ``t``. ``jennrich_decompose``,
    the caller, checks the order and draws ``a`` of length ``t.shape[2]``.
    """
    return np.einsum("ijk,k->ij", t.data, a)


def khatri_rao(a, b):
    """Column-wise Khatri-Rao product of two factor matrices.

    For ``a`` of shape (m, k) and ``b`` of shape (n, k), returns the
    (m*n, k) matrix whose column ``i`` is the row-major flattening of the
    outer product ``a[:, i] (x) b[:, i]``. The callers pass 2-D float64
    matrices with equal column counts.
    """
    m, k = a.shape
    n = b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, k)


def _als_refine(data, factors):
    """Refit the factor matrices of a CP model of ``data`` by alternating
    least squares, starting from ``factors`` (one (n_j, k) matrix per mode).

    Each sweep updates the modes in order, mode j to its unfolding times the
    Khatri-Rao product of the other factors (in mode order) times the
    pseudoinverse of the Hadamard product of their Grams (Kolda & Bader
    2009). Stops after ``_POLISH_SWEEPS`` sweeps, or once a sweep changes
    the first factor by at most ``_POLISH_TOL`` relative, so a start that is
    already a fixed point takes one sweep. The weights ride on the factors.
    """
    # C order fixes the BLAS summation order of the first sweep's products
    factors = [np.ascontiguousarray(f, dtype=np.float64) for f in factors]
    for _ in range(_POLISH_SWEEPS):
        previous = factors[0]
        for j, n in enumerate(data.shape):
            others = factors[:j] + factors[j + 1 :]
            grams = functools.reduce(np.multiply, [f.T @ f for f in others])
            kr = functools.reduce(khatri_rao, others)
            # the mode-j unfolding, a transposed copy for an inner mode,
            # lives only for this product
            factors[j] = np.moveaxis(data, j, 0).reshape(n, -1) @ kr @ pseudoinverse(grams)
        change = np.linalg.norm(factors[0] - previous)
        if change <= _POLISH_TOL * np.linalg.norm(factors[0]):
            break
    return factors


def flatten_to_order3(t, group1, group2, group3):
    """Fuse the modes of ``t`` into three groups, producing an order-3 tensor.

    The three groups are nonempty and partition ``0 .. t.order-1``: the one
    caller, ``overcomplete_decompose``, passes the groups of a checked
    ``FlatteningPlan``. Within a group, indices fuse lexicographically in the
    listed order, so a rank-one tensor flattens to the rank-one tensor of the
    per-group Khatri-Rao products of its factors.
    """
    groups = (group1, group2, group3)
    flat = [i for g in groups for i in g]
    sizes = [int(np.prod([t.shape[i] for i in g])) for g in groups]
    rearranged = np.transpose(t.data, axes=flat)
    return DenseTensor(rearranged.reshape(sizes))


def border_rank_fixture(u, v, m):
    """A rank-3 tensor plus a rank-2 approximation within ``O(1/m)``.

    Given orthonormal ``u`` and ``v``, builds
    ``A = u(x)u(x)v + v(x)u(x)u + u(x)v(x)u`` and the rank-2 decomposition
    ``m * (u + v/m)^(x3) - m * u^(x3)``, whose error shrinks like ``1/m``
    while the two term weights grow like ``m``.

    Returns ``(A, approx)`` with ``A`` a DenseTensor and ``approx`` a
    canonical CpDecomposition of rank 2.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    m = float(m)
    if u.ndim != 1 or v.ndim != 1 or u.shape != v.shape:
        raise PreconditionError("u and v must be 1-D vectors of equal length")
    if abs(np.linalg.norm(u) - 1.0) > 1e-10 or abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise PreconditionError("u and v must be unit vectors")
    if abs(float(u @ v)) > 1e-10:
        raise PreconditionError("u and v must be orthogonal")
    if not m > 0:
        raise PreconditionError("m must be positive")
    # column i of each mode's factor belongs to term i: u(x)u(x)v, v(x)u(x)u, u(x)v(x)u
    a = _cp_dense([np.column_stack(c) for c in ((u, v, u), (u, u, v), (v, u, u))], np.ones(3))
    x = u + v / m
    factors = [np.column_stack([x, u]) for _ in range(3)]
    approx = CpDecomposition(factors, [m, -m])
    return a, approx


# ---------------------------------------------------------------------------
# Serialization: TNSR v1 container and decomposition JSON.

def tnsr_bytes(t):
    """Serialize a DenseTensor to TNSR v1 container bytes.

    Layout: one UTF-8 JSON header line ``{"order": l, "shape": [...]}``
    terminated by a newline, followed by the entries as little-endian
    float64 in row-major order.
    """
    header = json.dumps({"order": t.order, "shape": list(t.shape)})
    return (
        header.encode("utf-8")
        + b"\n"
        + np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    )


def _is_count(x, least=0):
    """Whether a JSON value is an integer of at least ``least``. The test is
    ``type(x) is int``: JSON true and false are bools, and bool subclasses int."""
    return type(x) is int and x >= least


def read_tnsr(path):
    """Read a DenseTensor from the TNSR v1 container."""
    with open(path, "rb") as fh:
        raw = fh.read()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(raw[:nl].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or not _TNSR_MAGIC_KEYS <= set(header):
        raise FormatError(f"{path}: header must carry 'order' and 'shape'")
    order = header["order"]
    shape = header["shape"]
    if (
        not _is_count(order)
        or not isinstance(shape, list)
        or len(shape) != order
        or not all(_is_count(s, 1) for s in shape)
    ):
        raise FormatError(f"{path}: inconsistent order/shape in header")
    count = math.prod(shape)
    body = raw[nl + 1 :]
    if len(body) != 8 * count:
        raise FormatError(
            f"{path}: payload holds {len(body)} bytes, expected {8 * count}"
        )
    data = np.frombuffer(body, dtype="<f8", count=count).reshape(shape)
    try:
        return DenseTensor(data)
    except PreconditionError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def decomposition_to_dict(d):
    """JSON-ready dict for a CpDecomposition (factors stored per column)."""
    return {
        "order": d.order,
        "rank": d.rank,
        "shape": list(d.shape),
        "weights": [float(w) for w in d.weights],
        "factors": [
            [[float(x) for x in f[:, i]] for i in range(d.rank)] for f in d.factors
        ],
    }


def decomposition_from_dict(obj):
    """CpDecomposition from its JSON dict; a malformed field is a FormatError."""
    try:
        order = obj["order"]
        rank = obj["rank"]
        weights = obj["weights"]
        factors = obj["factors"]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"decomposition JSON missing field: {exc}") from exc
    shape = obj.get("shape")
    try:
        if not (_is_count(order) and _is_count(rank)
                and all(_is_count(s, 1) for s in shape or ())):
            raise FormatError("decomposition JSON order, rank and shape must be integers")
        if len(factors) != order or len(weights) != rank:
            raise FormatError("decomposition JSON fields disagree on order/rank")
        if shape is not None and len(shape) != order:
            raise FormatError("decomposition JSON shape does not match order")
        mats = []
        for j, cols in enumerate(factors):
            if len(cols) != rank:
                raise FormatError("factor column count does not match rank")
            if rank == 0:
                if shape is None:
                    raise FormatError("rank-0 decompositions need an explicit shape")
                mats.append(np.zeros((shape[j], 0)))
            else:
                mats.append(np.array(cols, dtype=np.float64).T)
        d = CpDecomposition(mats, weights)
        if shape is not None and list(d.shape) != list(shape):
            raise FormatError("factor row counts disagree with the declared shape")
    except FormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"malformed decomposition JSON: {exc}") from exc
    return d


def read_decomposition(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes and bad JSON alike
        raise FormatError(f"{path}: {exc}") from exc
    return decomposition_from_dict(obj)
