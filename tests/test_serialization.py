import numpy as np
import pytest

from dgsim import serialization as ser, simulator as sim, state as st_mod, unitary as un_mod
from dgsim.simulator import NumericalAdmissibilityError

from helpers import gate_doc, gate_rows, rand_antisym, rand_sequence, rand_unitary

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


VECTORS = {
    "special": np.array(SPECIAL),
    "signed zeros": np.array([0.0, -0.0, -0.0, 0.0]),
    "one": np.array([-0.0]),
    "extremes": np.array([5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0, -1.0 / 3.0]),
    "long": rng.normal(size=200_000) * np.where(rng.random(200_000) < 0.1, 0.0, 1.0),
    "strided": rng.normal(size=(9, 7))[:, 3],
    "reversed": rng.normal(size=49)[::-1],
    "float32": rng.normal(size=11).astype(np.float32),
}


@pytest.mark.parametrize("a", VECTORS.values(), ids=VECTORS.keys())
def test_float_vector_bytes_match_per_element(a):
    # A vector is one "%.17g" template, which writes +-0.0 as 0 and -0.
    assert ser.dumps(a) == per_element(a) + "\n"
    assert ser.dumps({"mu": a}) == ser.dumps({"mu": a.tolist()})


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3), (1, 1), (2, 3, 4)])
def test_float_array_shapes(shape):
    a = rng.normal(size=shape)
    assert ser.dumps(a) == per_element(a) + "\n"
    assert ser.dumps(a) == ser.dumps(a.tolist())


def test_float32_array():
    a = rng.normal(size=(3, 4)).astype(np.float32)
    assert ser.dumps(a) == per_element(a) + "\n"


def sparse_antisym(g, m):
    """An antisymmetric m x m matrix, about 70 % zeros, a third of them -0 (on the diagonal too)."""
    a = np.triu(g.normal(size=(m, m)) * (g.random((m, m)) < 0.3), 1)
    a = a - a.T
    a[(a == 0) & (g.random((m, m)) < 0.3)] = -0.0
    return a


def special_antisym():
    """SPECIAL above the diagonal in row 0, below it in row 8, each entry's mirror its negation."""
    a = np.zeros((9, 9))
    for k, v in enumerate(SPECIAL, start=1):
        a[0, k], a[k, 0] = v, -v
        a[8, k], a[k, 8] = v, -v
    a[4, 4] = -0.0
    return a


def one_ulp_off(g):
    a = rand_antisym(g, 12)
    a[3, 7] = np.nextafter(a[3, 7], np.inf)
    return a


ANTISYMMETRIC = {
    "special": special_antisym(),
    **{f"zeros {z}{w}": np.array([[0.0, float(f"{z}0")], [float(f"{w}0"), -0.0]])
       for z in "+-" for w in "+-"},
    "m=0": np.zeros((0, 0)),
    "m=1": np.array([[-0.0]]),
    "m=2": rand_antisym(rng, 2),
    "dense": rand_antisym(rng, 60),
    "float32": rand_antisym(rng, 30).astype(np.float32),
    "sparse": sparse_antisym(rng, 40),
    "one ulp off": one_ulp_off(rng),
}


@pytest.mark.parametrize("a", ANTISYMMETRIC.values(), ids=ANTISYMMETRIC.keys())
def test_antisymmetric_bytes_match_per_element(a):
    assert ser.dumps(a) == per_element(a) + "\n"
    assert ser.dumps({"M": a}) == ser.dumps({"M": a.tolist()})


def test_antisymmetric_cases_are_what_they_say():
    for name, a in ANTISYMMETRIC.items():
        assert (a == -a.T).all() == (name != "one ulp off"), name
    zeros = [np.signbit(ANTISYMMETRIC[f"zeros {z}{w}"][[0, 1], [1, 0]]).tolist() for z in "+-" for w in "+-"]
    assert zeros == [[False, False], [False, True], [True, False], [True, True]]
    assert (np.signbit(ANTISYMMETRIC["sparse"]) & (ANTISYMMETRIC["sparse"] == 0)).any()


@pytest.mark.parametrize("m, panel", [(400, None), (13, 1), (13, 40), (30, 200), (31, 200)])
def test_antisymmetric_across_panels(monkeypatch, m, panel):
    # The default panel splits m = 400 in three; the smaller ones give
    # one-row panels and a short last panel.
    if panel is not None:
        monkeypatch.setattr(ser, "_PANEL", panel)
    g = np.random.default_rng(m)
    a = sparse_antisym(g, m)
    assert ser.dumps(a) == per_element(a) + "\n"
    a = rand_antisym(g, m)
    assert ser.dumps(a) == per_element(a) + "\n"
    assert ser.dumps(np.vstack([a, a[:1]])) == per_element(np.vstack([a, a[:1]])) + "\n"
    assert ser.dumps(a[0]) == per_element(a[0]) + "\n"


def test_run_carrier_with_negative_zero():
    # A seeded search for a run whose output carrier holds -0: a lambda
    # of exactly 0 puts -0 in the input carrier, which gates may keep.
    g = np.random.default_rng(7)
    for _ in range(100):
        lambdas = np.where(g.random(3) < 0.5, 0.0, g.uniform(-1, 1, 3))
        out = sim.run(sim.Circuit(st_mod.from_diagonal(lambdas), rand_sequence(g, 3, 3)))
        if (np.signbit(out.M) & (out.M == 0)).any():
            break
    text = ser.dumps({"M": out.M, "mu": out.mu})
    assert "-0" in text.replace("[", ",").replace("]", ",").split(",")
    assert text == '{"M":' + per_element(out.M) + ',"mu":' + per_element(out.mu) + "}\n"


@pytest.mark.parametrize("value, text", [
    (np.array(1.0), "1"),
    (np.array(-0.0), "-0"),
    (np.array(2), "2"),
    (np.array([True]), "[true]"),
    (np.bool_(False), "false"),
    ({"ok": np.array(True)}, '{"ok":true}'),
], ids=["0-d float", "0-d -0", "0-d int", "bool array", "numpy bool", "0-d bool"])
def test_scalar_like_values(value, text):
    assert ser.dumps(value) == text + "\n"


def test_0d_non_finite_refused():
    with pytest.raises(NumericalAdmissibilityError, match="non-finite number inf"):
        ser.dumps({"x": np.array(np.inf)})


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
    docs = [gate_doc(g) for g in gate_rows(seq)]
    assert ser.dumps(seq) == ser.dumps(docs)
    assert ser.dumps({"gates": seq, "n": seq.n}) == ser.dumps({"gates": docs, "n": seq.n})


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
        ser.dumps({"gates": [gate_doc(g) for g in gate_rows(seq)]})
