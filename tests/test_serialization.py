import numpy as np
import pytest

from dgsim import serialization as ser
from dgsim.simulator import NumericalAdmissibilityError

rng = np.random.default_rng(4711)

SPECIAL = [0.0, -0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0, -2.5e-310]


def per_element(a) -> str:
    """The reference spelling: every element formatted on its own."""
    if a.ndim == 1:
        return "[" + ",".join(format(float(x), ".17g") for x in a) + "]"
    return "[" + ",".join(per_element(row) for row in a) + "]"


@pytest.mark.parametrize(
    "a",
    [
        rng.normal(size=50),
        rng.normal(size=(7, 9)),
        rng.normal(size=(4, 5)) * 1e-310,
        np.array(SPECIAL),
        np.array([SPECIAL, SPECIAL[::-1]]),
    ],
)
def test_float_array_bytes_match_per_element(a):
    assert ser.dumps(a) == per_element(a) + "\n"
    assert ser.dumps({"M": a}) == '{"M":' + per_element(a) + "}\n"


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3), (1, 1), (2, 3, 4)])
def test_float_array_shapes(shape):
    a = rng.normal(size=shape)
    assert ser.dumps(a) == per_element(a) + "\n"
    assert ser.dumps(a) == ser.dumps(a.tolist())


def test_float32_array():
    a = rng.normal(size=(3, 4)).astype(np.float32)
    assert ser.dumps(a) == per_element(a) + "\n"


def test_integer_array_keeps_integers():
    assert ser.dumps(np.arange(3)) == "[0,1,2]\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (2, 3), (4, 1)])
def test_non_finite_anywhere_refused(bad, where):
    a = rng.normal(size=(5, 4))
    a[where] = bad
    with pytest.raises(NumericalAdmissibilityError, match=f"non-finite number {bad}"):
        ser.dumps({"M": a})
    with pytest.raises(NumericalAdmissibilityError):
        ser.dumps(a.ravel())
