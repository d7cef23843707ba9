"""Gate evolution against the per-Gate reference fold, bit for bit.

``simulator.run`` and ``unitary.sequence_rotation`` must give exactly the
carriers and rotations of folding one ``Gate`` at a time (see
``helpers.reference_run``), and the angles a parsed or compiled gate
carries must be exactly those ``Gate(...)`` holds.  Comparing with the
reference on the machine that runs the tests pins byte-identical output
without a stored digest of BLAS results, which can differ between CPUs.
"""

import numpy as np
import pytest

from dgsim import antisym, serialization as ser, simulator as sim, state as st_mod, unitary as un_mod

from helpers import rand_bloch, rand_sequence, rand_unitary, reference_rotation, reference_run

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
    want = [
        un_mod.Gate(un_mod.LINE1 if ext in pr.axes else un_mod.MATCHGATE, axes=pr.axes, angle=pr.angle)
        for pr in antisym.plane_decompose(R, un_mod._compile_adjacency(n))
    ]
    assert len(seq) == len(want) > 0
    for got, w in zip(seq, want):
        same_gate(got, w)
    assert np.array_equal(un_mod.sequence_rotation(seq), reference_rotation(n, want))
