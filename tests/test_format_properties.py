"""Property tests for the two readers: any bytes either parse or raise
FormatError, never another exception."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tensordec import CpDecomposition, DenseTensor, FormatError, read_decomposition, read_tnsr

# Deterministic and bounded, so the suite stays reproducible and fast.
FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
small_ints = st.integers(min_value=-2, max_value=4)
numbers = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-5, 5)


def _near(valid):
    """Mostly well-typed values, sometimes arbitrary JSON."""
    return valid | json_values


columns = st.lists(_near(st.lists(_near(numbers), max_size=4)), max_size=3)
decomposition_dicts = st.fixed_dictionaries(
    {
        "order": _near(small_ints),
        "rank": _near(small_ints),
        "weights": _near(st.lists(_near(numbers), max_size=3)),
        "factors": _near(st.lists(_near(columns), max_size=3)),
    },
    optional={"shape": _near(st.lists(_near(small_ints), max_size=3))},
)


@st.composite
def consistent_decomposition_dicts(draw):
    """Well-formed dicts whose entries are any finite floats."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    order = draw(st.integers(1, 3))
    rank = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    factors = [
        draw(st.lists(st.lists(finite, min_size=n, max_size=n), min_size=rank, max_size=rank))
        for n in shape
    ]
    weights = draw(st.lists(finite, min_size=rank, max_size=rank))
    return {"order": order, "rank": rank, "shape": shape, "weights": weights,
            "factors": factors}


tnsr_headers = _near(
    st.fixed_dictionaries(
        {"order": _near(small_ints), "shape": _near(st.lists(small_ints, max_size=3))}
    )
)


def _parses_or_format_error(read, path, data):
    """``read`` of a file holding ``data``, or None if it raised FormatError;
    any other exception fails the test."""
    path.write_bytes(data)
    try:
        return read(str(path))
    except FormatError:
        return None


@FUZZ
@given(data=st.binary(max_size=64))
def test_tnsr_arbitrary_bytes(tmp_path, data):
    result = _parses_or_format_error(read_tnsr, tmp_path / "t.tnsr", data)
    assert result is None or isinstance(result, DenseTensor)


@FUZZ
@given(header=tnsr_headers, payload=st.binary(max_size=72))
def test_tnsr_structured_headers(tmp_path, header, payload):
    data = json.dumps(header).encode("utf-8") + b"\n" + payload
    result = _parses_or_format_error(read_tnsr, tmp_path / "t.tnsr", data)
    if result is not None:
        assert np.all(np.isfinite(result.data))
        assert len(payload) == 8 * result.data.size


@FUZZ
@given(data=st.binary(max_size=64))
def test_decomposition_arbitrary_bytes(tmp_path, data):
    result = _parses_or_format_error(read_decomposition, tmp_path / "d.json", data)
    assert result is None or isinstance(result, CpDecomposition)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@FUZZ
@given(obj=consistent_decomposition_dicts() | decomposition_dicts | json_values)
def test_decomposition_structured_json(tmp_path, obj):
    data = json.dumps(obj).encode("utf-8")
    result = _parses_or_format_error(read_decomposition, tmp_path / "d.json", data)
    if result is not None:
        assert np.all(np.isfinite(result.weights))
        assert all(np.all(np.isfinite(f)) for f in result.factors)
