"""Gate evolution against the per-Gate reference fold, bit for bit.

``simulator.run`` and ``unitary.sequence_rotation`` both zip one
derivation of each gate's rows and Q, ``unitary._gate_blocks`` (at row
shifts 1 and 0), and must give exactly the carriers and rotations of
folding one ``Gate`` at a time (see ``helpers.reference_run``) and of the
gathering fold ``run`` replaced (``helpers.gather_run``), and the angles
a parsed or compiled gate carries must be exactly those ``Gate(...)``
holds.  Comparing with the reference on the machine that runs the tests
pins byte-identical output without a stored digest of BLAS results,
which can differ between CPUs.
"""

import numpy as np
import pytest

from dgsim import serialization as ser, simulator as sim, state as st_mod, unitary as un_mod

from helpers import (
    PlaneRotation,
    gate_rows,
    gather_fold,
    gather_run,
    is_exit_of,
    plane_decompose_reference,
    rand_bloch,
    rand_gate,
    rand_sequence,
    rand_unitary,
    reference_block,
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


def same_bits(a, b):
    """Equal arrays with equal bits: a -0.0 differs from a 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_gates(seq, want):
    """``seq`` holds exactly the Gates ``want``: equal columns, the angles compared bit for bit."""
    ref = un_mod.GateSequence(seq.n, want)
    for got, w in ((seq.kind, ref.kind), (seq.axes, ref.axes), (seq.line, ref.line), (seq.angle, ref.angle)):
        assert same_bits(got, w)


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
    same_gates(c.gates, want)
    out = sim.run(c)
    M, mu = reference_run(c.input_state().M_ext, want)
    assert same_bits(out.M, M) and same_bits(out.mu, mu)
    assert np.array_equal(un_mod.sequence_rotation(c.gates), reference_rotation(n, want))


@pytest.mark.parametrize("n", SIZES)
def test_gate_sequence_run_matches_reference(n):
    rng = np.random.default_rng(n)
    gates = [rand_gate(rng, n) for _ in range(4 * n + 12)]
    seq = un_mod.GateSequence(n, gates)
    c = sim.Circuit(st_mod.from_diagonal(rng.uniform(-1, 1, n)), seq)
    out = sim.run(c)
    M, mu = reference_run(c.input_state().M_ext, gates)
    assert same_bits(out.M, M) and same_bits(out.mu, mu)
    assert np.array_equal(un_mod.sequence_rotation(seq), reference_rotation(n, gates))


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_compiled_gates_match_reference(n):
    rng = np.random.default_rng(70 + n)
    R = rand_unitary(rng, n, scale=2.0).rotation()
    seq = un_mod.compile(un_mod.DGUnitary.from_rotation(n, R))
    ext = 2 * n
    allowed = un_mod._compile_adjacency(n)
    want = [
        un_mod.Gate(un_mod.LINE1 if ext in pr.axes else un_mod.MATCHGATE, axes=pr.axes, angle=pr.angle)
        for pr in plane_decompose_reference(R, lambda j, k: bool(allowed[j, k]))
    ]
    assert len(seq) == len(want) > 0
    same_gates(seq, want)
    assert np.array_equal(un_mod.sequence_rotation(seq), reference_rotation(n, want))


def test_gate_angle_is_plane_rotation_angle():
    # Gate normalizes with wrap_angles; the scalar definition must agree bit for bit.
    rng = np.random.default_rng(11)
    angles = np.concatenate([rng.uniform(-40, 40, 2000), rng.normal(size=500) * 1e-8,
                             [0.0, -0.0, np.pi, -np.pi, 3 * np.pi, 1e300, -1e-300]])
    for a in angles.tolist():
        got = un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=a).angle
        assert float(got).hex() == PlaneRotation((0, 1), a).angle.hex()


def deep_gates(rng, n, count):
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
    return gates


@pytest.mark.parametrize("n", [3, 8, 40])
def test_sequence_rotation_deep_and_wide_match_reference(n):
    # Long chains of gates on the same rows, spread-out gates and the two
    # concatenated: the product has the bits of the per-gate fold.
    rng = np.random.default_rng(500 + n)
    deep = deep_gates(rng, n, 300)
    wide = [rand_gate(rng, n) for _ in range(12 * n)]
    for gates in (deep, wide, deep + wide + deep):
        seq = un_mod.GateSequence(n, gates)
        assert same_bits(un_mod.sequence_rotation(seq), reference_rotation(n, gates))


@pytest.mark.parametrize("n", [1, 4, 9])
def test_sequence_rotation_of_compiled_and_empty_sequences(n):
    rng = np.random.default_rng(900 + n)
    seq = un_mod.compile(rand_unitary(rng, n, scale=2.0))
    assert len(seq) > 0
    assert same_bits(un_mod.sequence_rotation(seq), reference_rotation(n, gate_rows(seq)))
    empty = un_mod.GateSequence(n)
    assert same_bits(un_mod.sequence_rotation(empty), np.eye(2 * n + 1))


def one_gate_block(n, gate):
    """(slice, lowest row, highest row, Q) of one gate in fold order (shift 1), as run folds it."""
    return next(zip(*un_mod._gate_blocks(un_mod.GateSequence(n, (gate,)), 1)))


def fold_rows(n, gate, shift):
    """The gate's rows in the order of its axes, axis a at row (a + shift) % (2n + 1).

    Shift 0 is the natural order; shift 1 is fold order (axis 2n at 0).
    """
    return [(r + shift) % (2 * n + 1) for r in reference_block(gate)[0]]


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


@pytest.mark.parametrize("n", [1, 3, 8, 1003])
def test_fold_order_columns_match_reference(n):
    # The derivation run (shift 1) and sequence_rotation (shift 0) zip, over
    # a whole mixed sequence: each gate's slice picks its rows in the order
    # of its axes (a descending one down to row 0 with stop None), lows and
    # highs bound them, and Q is the per-gate reference block, whatever
    # kinds precede the gate.  At shift 0, block_gates' slices down to row 0
    # are the matchgate (3, 0) and the line1 gates (1, 0) and (2n, 0).
    rng = np.random.default_rng(70 + n)
    gates = block_gates(n) + [rand_gate(rng, n) for _ in range(40)]
    gates = [gates[i] for i in rng.permutation(len(gates))]
    ext = 2 * n
    assert {(g.kind, g.axes) for g in gates} >= {(un_mod.LINE1, (0, ext)), (un_mod.LINE1, (ext, 0))}
    assert n == 1 or un_mod.Gate(un_mod.FSWAP, line=n - 2) in gates
    for shift in (0, 1):
        columns = list(zip(*un_mod._gate_blocks(un_mod.GateSequence(n, gates), shift)))
        assert len(columns) == len(gates)
        for g, (sl, a, b, Q) in zip(gates, columns):
            rows = fold_rows(n, g, shift)
            assert np.arange(ext + 1)[sl].tolist() == rows and (a, b) == (min(rows), max(rows)), (g, shift)
            assert (sl.stop is None) == (rows[-1] == 0 and len(rows) == 2 and rows[0] > 0), (g, shift)
            assert same_bits(Q, reference_block(g)[1]), (g, shift)
        assert list(zip(*un_mod._gate_blocks(un_mod.GateSequence(n), shift))) == []


@pytest.mark.parametrize("n", [1, 3, 128, 1003])
def test_slice_views_keep_gather_bits(n):
    # run updates a gate's rows of the fold-order block B through a basic-slice
    # view, and its columns as the same rows of B^T, over the whole width or
    # over a band of columns L..H-1.  Each must give the bits of the gathering
    # forms Q @ B[rows, :] and B[:, rows] @ Q^T on the entries it writes.
    rng = np.random.default_rng(n)
    w = 2 * n + 1
    X = rng.normal(size=(w + 1, w + 1))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.1] = -0.0
    B = X[:-1, :-1]
    gates = block_gates(n)
    assert {len(fold_rows(n, g, 1)) for g in gates} == ({2, 4} if n > 1 else {2})
    for g in gates:
        sl, a, b, Q = one_gate_block(n, g)
        rows = fold_rows(n, g, 1)
        assert np.arange(w)[sl].tolist() == rows and (a, b) == (min(rows), max(rows)) and b - a <= 3
        assert same_bits(Q, reference_block(g)[1])
        for L, H in {(0, w), (a, b + 1), (int(rng.integers(0, a + 1)), int(rng.integers(b + 1, w + 1)))}:
            got = X.copy()[:-1, :-1]
            got[sl, L:H] = Q @ got[sl, L:H]
            assert same_bits(got[rows, L:H], (Q @ B[rows, :])[:, L:H]), (g, L, H, "rows")
            got = X.copy()[:-1, :-1]
            got.T[sl, L:H] = Q @ got.T[sl, L:H]
            assert same_bits(got[L:H][:, rows], (B[:, rows] @ Q.T)[L:H]), (g, L, H, "columns")


@pytest.mark.parametrize("n", [3, 8, 40])
def test_band_products_ignore_the_sign_of_zero(n):
    # The band skips entries that are zero, which the whole-row product would
    # set to +0, and may later read them with either sign.  So Q @ V never
    # holds -0, and flipping the sign of V's zeros leaves its bits as they
    # are.  V takes every band width 2..2n+1, contiguous and strided rows
    # (negative steps too), in the row form and the transposed form; Q is
    # each width's fold block at angles 0, pi, -pi/2, -3pi/4 and random.
    rng = np.random.default_rng(40 + n)
    X = rng.normal(size=(2 * n + 2, 2 * n + 2))
    X[rng.random(X.shape) < 0.5] = 0.0
    X[:, rng.random(len(X)) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.5] *= -1
    flipped = np.where(X == 0, -X, X)
    assert np.signbit(X[X == 0]).any() and not np.signbit(X[X == 0]).all()
    angles = [0.0, np.pi, -np.pi / 2, -3 * np.pi / 4, *rng.uniform(-np.pi, np.pi, 3).tolist()]
    Qs = [one_gate_block(n, un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=t))[3] for t in angles]
    Qs.append(one_gate_block(n, un_mod.Gate(un_mod.FSWAP, line=0))[3])
    for Q in Qs:
        k = len(Q)
        for step in (1, 2, -1, -2):
            top = int(rng.integers(0, len(X) - abs(step) * (k - 1)))
            rows = slice(top, None, step) if step > 0 else slice(top + abs(step) * (k - 1), None, step)
            for A, F in ((X, flipped), (X.T, flipped.T)):
                for width in range(2, 2 * n + 2):
                    L = int(rng.integers(0, len(X) - width + 1))
                    V, Vf = A[rows, L:L + width][:k], F[rows, L:L + width][:k]
                    P = Q @ V
                    assert not (np.signbit(P) & (P == 0)).any(), (Q, step, width)
                    assert same_bits(P, Q @ Vf) and same_bits(P, Q @ np.ascontiguousarray(V)), (Q, step, width)


def signed_zero_sequence(rng, n, count):
    """Random gates, a third with angles 0, pi, -pi/2 or -3pi/4, which turn zeros into -0.0."""
    gates = [rand_gate(rng, n) for _ in range(count)]
    for i in range(0, count, 3):
        if gates[i].kind != un_mod.FSWAP:
            angle = float(rng.choice([0.0, np.pi, -np.pi / 2, -3 * np.pi / 4]))
            gates[i] = un_mod.Gate(gates[i].kind, axes=gates[i].axes, angle=angle)
    return un_mod.GateSequence(n, gates)


@pytest.mark.parametrize("kind", ["lambdas", "bloch", "covariance", "vector"])
@pytest.mark.parametrize("n", [1, 2, 5, 40, 128, 300])
def test_run_matches_gather_fold(n, kind):
    # Deep circuits reach every entry; shallow ones leave some input
    # entries as they were, so the -0.0 planted in a lambdas input's upper
    # triangle reaches the output through the symmetrization.  A held state
    # folds over the whole width; a "vector" input, lambdas held as such
    # (+-0, +-1 and random), folds over its band, also with measured lines,
    # and up to n = 40 a long circuit fills that band.
    rng = np.random.default_rng(3000 + n + len(kind))
    if kind == "vector":
        state = rng.uniform(-1, 1, n)
        pick = rng.random(n) < 0.6
        state[pick] = rng.choice([0.0, -0.0, 1.0, -1.0], int(pick.sum()))
    elif kind == "lambdas":
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
    shallow = signed_zero_sequence(rng, n, n // 4 + 1)
    full = signed_zero_sequence(rng, n, 60 * n) if kind == "vector" and n <= 40 else None
    line_sets = [None]
    if kind == "vector":
        line_sets += [tuple(sorted({0, n - 1, *rng.choice(n, n // 3, replace=False).tolist()}))]
    signed = False
    for seq in (deep, shallow) + ((full,) if full else ()):
        for lines in line_sets:
            c = sim.Circuit(state, seq, lines)
            out = sim.run(c)
            if lines is None:
                M, mu = gather_run(c)
                assert same_bits(out.M, M) and same_bits(out.mu, mu)
                signed |= bool((np.signbit(out.M) & (out.M == 0)).any())
                if seq is full:  # the band reached the whole carrier
                    assert (out.M[~np.eye(2 * n, dtype=bool)] != 0).mean() > 0.9
            else:
                ext = sim._measured_axes(lines) + [2 * n]
                assert is_exit_of(out, gather_fold(c)[np.ix_(ext, ext)])
    if kind in ("lambdas", "vector") and n > 2:
        assert signed  # the comparison sees signed zeros
