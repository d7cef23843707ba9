"""Gate evolution against the per-Gate reference fold, bit for bit.

``simulator.run`` and ``unitary.sequence_rotation`` must give exactly the
carriers and rotations of folding one ``Gate`` at a time (see
``helpers.reference_run``) and of the gathering fold ``run`` replaced
(``helpers.gather_run``), and the angles a parsed or compiled gate
carries must be exactly those ``Gate(...)`` holds.  Comparing with the
reference on the machine that runs the tests pins byte-identical output
without a stored digest of BLAS results, which can differ between CPUs.
"""

import numpy as np
import pytest

from dgsim import serialization as ser, simulator as sim, state as st_mod, unitary as un_mod

from helpers import (
    PlaneRotation,
    gather_run,
    plane_decompose_reference,
    rand_bloch,
    rand_sequence,
    rand_unitary,
    reference_rotation,
    reference_run,
)

SIZES = [1, 2, 3, 17, 64, 200]


def rand_gate_doc(rng, n):
    """A gate document with an angle outside (-pi, pi], so parsing must wrap it."""
    kinds = ["matchgate", "line1"] + (["fswap"] if n > 1 else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind == "fswap":
        return {"kind": kind, "line": int(rng.integers(0, n - 1))}
    if kind == "line1":
        axes = sorted(int(a) for a in rng.choice([0, 1, 2 * n], size=2, replace=False))
    else:
        start = 2 * int(rng.integers(0, n))
        win = [a for a in range(start, start + 4) if a < 2 * n]
        axes = sorted(int(a) for a in rng.choice(win, size=2, replace=False))
    return {"kind": kind, "axes": axes, "angle": float(rng.uniform(-12, 12))}


def gate_of(doc):
    if doc["kind"] == un_mod.FSWAP:
        return un_mod.Gate(un_mod.FSWAP, line=doc["line"])
    return un_mod.Gate(doc["kind"], axes=tuple(doc["axes"]), angle=doc["angle"])


def same_gate(got, want):
    """Equal fields, with the angles compared bit for bit."""
    assert (got.kind, got.axes, got.line) == (want.kind, want.axes, want.line)
    if want.angle is None:
        assert got.angle is None
    else:
        assert float(got.angle).hex() == float(want.angle).hex()


def same_bits(a, b):
    """Equal arrays with equal bits: a -0.0 differs from a 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def input_doc(rng, n, kind):
    if kind == "lambdas":
        return {"lambdas": rng.uniform(-1, 1, n).tolist()}
    if kind == "bloch":
        return {"bloch": [rand_bloch(rng, pure=True).tolist() for _ in range(n)]}
    # An admissible displaced carrier: a random circuit's output.
    c = sim.Circuit(st_mod.from_diagonal(rng.uniform(-1, 1, n)), rand_sequence(rng, n, 3 * n))
    s = sim.run(c)
    return {"covariance": {"M": s.M.tolist(), "mu": s.mu.tolist()}}


@pytest.mark.parametrize("kind", ["lambdas", "bloch", "covariance"])
@pytest.mark.parametrize("n", SIZES)
def test_parsed_run_matches_reference(n, kind):
    rng = np.random.default_rng(1000 * n + len(kind))
    gate_docs = [rand_gate_doc(rng, n) for _ in range(4 * n + 12)]
    if n > 1:
        assert {g["kind"] for g in gate_docs} == {"matchgate", "line1", "fswap"}
    doc = {"schema": ser.SCHEMA_VERSION, "n": n, "input": input_doc(rng, n, kind),
           "gates": gate_docs}
    c, _ = ser.parse_circuit(doc)
    want = [gate_of(g) for g in gate_docs]
    assert len(c.gates) == len(want)
    for got, w in zip(c.gates, want):
        same_gate(got, w)
    out = sim.run(c)
    M, mu = reference_run(c.input_state().M_ext, want)
    assert same_bits(out.M, M) and same_bits(out.mu, mu)
    assert np.array_equal(un_mod.sequence_rotation(c.gates), reference_rotation(n, want))


@pytest.mark.parametrize("n", SIZES)
def test_gate_sequence_run_matches_reference(n):
    rng = np.random.default_rng(n)
    seq = rand_sequence(rng, n, 4 * n + 12)
    gates = list(seq)
    c = sim.Circuit(st_mod.from_diagonal(rng.uniform(-1, 1, n)), seq)
    out = sim.run(c)
    M, mu = reference_run(c.input_state().M_ext, gates)
    assert same_bits(out.M, M) and same_bits(out.mu, mu)
    assert np.array_equal(un_mod.sequence_rotation(seq), reference_rotation(n, gates))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_compiled_gates_match_reference(n):
    rng = np.random.default_rng(70 + n)
    R = rand_unitary(rng, n, scale=2.0).rotation()
    seq = un_mod.compile_rotation(R, n)
    ext = 2 * n
    allowed = un_mod._compile_adjacency(n)
    want = [
        un_mod.Gate(un_mod.LINE1 if ext in pr.axes else un_mod.MATCHGATE, axes=pr.axes, angle=pr.angle)
        for pr in plane_decompose_reference(R, lambda j, k: bool(allowed[j, k]))
    ]
    assert len(seq) == len(want) > 0
    for got, w in zip(seq, want):
        same_gate(got, w)
    assert np.array_equal(un_mod.sequence_rotation(seq), reference_rotation(n, want))


def test_gate_angle_is_plane_rotation_angle():
    # Gate normalizes with wrap_angles; the scalar definition must agree bit for bit.
    rng = np.random.default_rng(11)
    angles = np.concatenate([rng.uniform(-40, 40, 2000), rng.normal(size=500) * 1e-8,
                             [0.0, -0.0, np.pi, -np.pi, 3 * np.pi, 1e300, -1e-300]])
    for a in angles.tolist():
        got = un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=a).angle
        assert float(got).hex() == PlaneRotation((0, 1), a).angle.hex()


def deep_sequence(rng, n, count):
    """Gates crowded onto the first lines, fswaps among them: long chains on the same rows."""
    gates = []
    for i in range(count):
        if i % 5 == 4:
            gates.append(un_mod.Gate(un_mod.FSWAP, line=int(rng.integers(0, min(2, n - 1)))))
        elif i % 5 == 3:
            axes = tuple(int(a) for a in rng.choice([0, 1, 2 * n], size=2, replace=False))
            gates.append(un_mod.Gate(un_mod.LINE1, axes=axes, angle=float(rng.uniform(-3, 3))))
        else:
            axes = tuple(int(a) for a in rng.choice(4, size=2, replace=False))
            gates.append(un_mod.Gate(un_mod.MATCHGATE, axes=axes, angle=float(rng.uniform(-3, 3))))
    return un_mod.GateSequence(n, gates)


@pytest.mark.parametrize("n", [3, 8, 40])
def test_sequence_rotation_layers_match_reference(n):
    # Many gates on the same rows make deep layers; the spread-out part
    # makes wide ones.  Either way the layered product is the per-gate fold.
    rng = np.random.default_rng(500 + n)
    deep = deep_sequence(rng, n, 300)
    wide = rand_sequence(rng, n, 12 * n)
    for seq in (deep, wide, un_mod.GateSequence(n, list(deep) + list(wide) + list(deep))):
        assert same_bits(un_mod.sequence_rotation(seq), reference_rotation(n, list(seq)))
    layer = un_mod._layers(deep)
    assert layer.max() + 1 >= len(deep) // 3


@pytest.mark.parametrize("n", [1, 4, 9])
def test_sequence_rotation_of_compiled_and_empty_sequences(n):
    rng = np.random.default_rng(900 + n)
    seq = un_mod.compile(rand_unitary(rng, n, scale=2.0))
    assert len(seq) > 0
    assert same_bits(un_mod.sequence_rotation(seq), reference_rotation(n, list(seq)))
    empty = un_mod.GateSequence(n)
    assert same_bits(un_mod.sequence_rotation(empty), np.eye(2 * n + 1))


def one_gate_block(n, gate):
    """(slice, rows, Q) of one gate, as run folds it."""
    return un_mod.GateSequence(n, (gate,)).blocks[0]


def block_gates(n):
    """Plane gates on ascending and descending axes, (0, 2n), (2n, 1), (2n, 0), and fswaps."""
    ext = 2 * n
    planes = [(un_mod.LINE1, axes) for axes in [(0, ext), (ext, 1), (ext, 0), (1, ext), (1, 0)]]
    if n > 1:
        planes += [(un_mod.MATCHGATE, axes) for axes in [(0, 1), (0, 3), (3, 0), (2, 5), (5, 2),
                                                         (ext - 4, ext - 1), (ext - 1, ext - 3)]]
    gates = [un_mod.Gate(kind, axes=axes, angle=0.3 + 0.4 * i) for i, (kind, axes) in enumerate(planes)]
    gates += [un_mod.Gate(un_mod.FSWAP, line=a) for a in sorted({0, (n - 1) // 2, n - 2}) if n > 1]
    return gates


@pytest.mark.parametrize("n", [1, 3, 128, 1003])
def test_slice_views_keep_gather_bits(n):
    # run updates a gate's rows through a basic-slice view and its columns
    # as the same rows of the transposed carrier; both must give the bits of
    # the gathering forms Q @ Me[rows, :] and Me[:, rows] @ Q^T.
    rng = np.random.default_rng(n)
    Me = rng.normal(size=(2 * n + 1, 2 * n + 1))
    Me[rng.random(Me.shape) < 0.2] = 0.0
    Me[rng.random(Me.shape) < 0.1] = -0.0
    gates = block_gates(n)
    assert {len(one_gate_block(n, g)[1]) for g in gates} == ({2, 4} if n > 1 else {2})
    for g in gates:
        sl, rows, Q = one_gate_block(n, g)
        assert np.arange(2 * n + 1)[sl].tolist() == rows.tolist()
        want = Me.copy()
        want[rows, :] = Q @ want[rows, :]
        got = Me.copy()
        got[sl] = Q @ got[sl]
        assert same_bits(got, want), (g, "rows")
        want[:, rows] = want[:, rows] @ Q.T
        got.T[rows] = Q @ got.T[rows]
        assert same_bits(got, want), (g, "columns")


def signed_zero_sequence(rng, n, count):
    """Random gates, a third with angles 0, pi, -pi/2 or -3pi/4, which turn zeros into -0.0."""
    gates = list(rand_sequence(rng, n, count))
    for i in range(0, count, 3):
        if gates[i].kind != un_mod.FSWAP:
            angle = float(rng.choice([0.0, np.pi, -np.pi / 2, -3 * np.pi / 4]))
            gates[i] = un_mod.Gate(gates[i].kind, axes=gates[i].axes, angle=angle)
    return un_mod.GateSequence(n, gates)


@pytest.mark.parametrize("kind", ["lambdas", "bloch", "covariance"])
@pytest.mark.parametrize("n", [1, 2, 5, 40, 128, 300])
def test_run_matches_gather_fold(n, kind):
    # Deep circuits reach every entry; shallow ones leave some input
    # entries as they were, so the -0.0 planted in a lambdas input's upper
    # triangle reaches the output through the symmetrization.
    rng = np.random.default_rng(3000 + n + len(kind))
    if kind == "lambdas":
        lambdas = rng.uniform(-1, 1, n)
        lambdas[rng.random(n) < 0.3] = 0.0
        M = st_mod.from_diagonal(lambdas).M
        M[np.triu(M == 0, 1)] = -0.0
        state = st_mod.DGaussState(n, M, np.zeros(2 * n))
    elif kind == "bloch":
        state = sim.prepare_product([rand_bloch(rng, pure=True) for _ in range(n)])
    else:
        doc = input_doc(rng, n, "covariance")["covariance"]
        state = st_mod.DGaussState(n, np.array(doc["M"]), np.array(doc["mu"]))
    deep = signed_zero_sequence(rng, n, 4 * n + 12)
    if n > 1:
        assert set(deep.kind.tolist()) == {0, 1, 2}
    for seq in (deep, signed_zero_sequence(rng, n, n // 4 + 1)):
        c = sim.Circuit(state, seq)
        out = sim.run(c)
        M, mu = gather_run(c)
        assert same_bits(out.M, M) and same_bits(out.mu, mu)
    if kind == "lambdas" and n > 2:
        assert (np.signbit(out.M) & (out.M == 0)).any()  # the comparison sees signed zeros
