import numpy as np
import pytest

from dgsim import serialization as ser, unitary as un_mod
from dgsim.simulator import NumericalAdmissibilityError

from helpers import gate_doc, rand_unitary

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


def gate_list_cases():
    """Gate lists: signed zeros and subnormal angles, every kind, parsed, compiled, empty."""
    n = 3
    special = un_mod.GateSequence._from_columns(
        n, [0, 1, 2, 0, 1, 0], [0, 0, -1, 5, 6, 2], [1, 6, -1, 4, 1, 3], [-1, -1, 1, -1, -1, -1],
        [-0.0, 0.0, 0.0, 5e-324, -np.pi, 1.0 / 3.0])
    kinds = ["matchgate"] * 4 + ["line1"] * 2 + ["fswap"] * 3
    docs = []
    for kind in rng.permutation(kinds).tolist():
        if kind == "fswap":
            docs.append({"kind": kind, "line": int(rng.integers(0, n - 1))})
        elif kind == "line1":
            docs.append({"kind": kind, "axes": [int(rng.integers(0, 2)), 2 * n],
                         "angle": float(rng.uniform(-3, 3))})
        else:
            a = 2 * int(rng.integers(0, n - 1))
            docs.append({"kind": kind, "axes": [a, a + 3], "angle": float(rng.uniform(-3, 3))})
    circuit = {"schema": ser.SCHEMA_VERSION, "n": n, "input": {"lambdas": [1.0] * n}, "gates": docs}
    parsed = ser.parse_circuit(circuit)[0].gates
    compiled = un_mod.compile(rand_unitary(rng, n))
    return [special, parsed, compiled, un_mod.GateSequence(n, ())]


@pytest.mark.parametrize("seq", gate_list_cases(), ids=["special", "parsed", "compiled", "empty"])
def test_gate_list_bytes_match_gate_docs(seq):
    want = ser.dumps([gate_doc(g) for g in seq.gates])
    assert ser.dumps(seq) == want
    assert ser.dumps({"gates": seq, "n": seq.n}) == ser.dumps(
        {"gates": [gate_doc(g) for g in seq.gates], "n": seq.n})


def test_gate_list_signed_zero_and_kinds_present():
    special, parsed, _, empty = gate_list_cases()
    assert ser.dumps(special).startswith('[{"angle":-0,"axes":[0,1],"kind":"matchgate"},')
    assert set(parsed.kind.tolist()) == {0, 1, 2}
    assert ser.dumps(empty) == "[]\n"


def test_gate_list_non_finite_angle_refused():
    # A sequence refuses a non-finite angle (GateError), so dumps's own
    # check is reached through a sequence whose angle column is replaced.
    seq = un_mod.GateSequence._from_columns(2, [0], [0], [1], [-1], [0.5])
    seq.angle = np.array([float("nan")])
    with pytest.raises(NumericalAdmissibilityError, match="non-finite"):
        ser.dumps({"gates": seq})
    with pytest.raises(NumericalAdmissibilityError, match="non-finite"):
        ser.dumps({"gates": [gate_doc(g) for g in seq.gates]})
