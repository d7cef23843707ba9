"""Shared random-instance builders and reference implementations for the test suite."""

from __future__ import annotations

import numpy as np

from dgsim import antisym, oracle, simulator as sim, state as st_mod, unitary as un_mod


def rand_antisym(rng, m, scale=1.0):
    h = rng.normal(size=(m, m)) * scale
    return (h - h.T) / 2


def rand_state(rng, n, scale=0.4):
    """Random mixed displaced Gaussian state via a thermal generator."""
    return st_mod.from_thermal(rand_antisym(rng, 2 * n), rng.normal(size=2 * n) * scale)


def rand_pure_state(rng, n, scale=0.5):
    """Random pure displaced Gaussian state: rotate the all-|0> state."""
    U = rand_unitary(rng, n, scale=scale)
    return un_mod.conjugate_state(U, st_mod.from_diagonal([1.0] * n))


def rand_unitary(rng, n, scale=0.5):
    h = rand_antisym(rng, 2 * n)
    return un_mod.DGUnitary.from_generator(n, h, rng.normal(size=2 * n) * scale)


def rand_gate(rng, n):
    kinds = ["matchgate", "line1"] + (["fswap"] if n > 1 else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind == "fswap":
        return un_mod.Gate(un_mod.FSWAP, line=int(rng.integers(0, n - 1)))
    if kind == "line1":
        axes = sorted(int(a) for a in rng.choice([0, 1, 2 * n], size=2, replace=False))
        return un_mod.Gate(un_mod.LINE1, axes=tuple(axes), angle=float(rng.uniform(-3, 3)))
    start = 2 * int(rng.integers(0, n))
    win = [a for a in range(start, start + 4) if a < 2 * n]
    axes = sorted(int(a) for a in rng.choice(win, size=2, replace=False))
    return un_mod.Gate(un_mod.MATCHGATE, axes=tuple(axes), angle=float(rng.uniform(-3, 3)))


def rand_sequence(rng, n, count):
    return un_mod.GateSequence(n, tuple(rand_gate(rng, n) for _ in range(count)))


def rand_bloch(rng, pure=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.random() ** 0.5
    return v


def dense_product(blochs):
    out = np.eye(1, dtype=complex)
    for r in blochs:
        out = np.kron(
            out,
            0.5
            * (
                np.eye(2)
                + r[0] * oracle.PAULIS[1]
                + r[1] * oracle.PAULIS[2]
                + r[2] * oracle.PAULIS[3]
            ),
        )
    return out


def ghz4():
    """(|0000> + |1111>)/sqrt(2): even, pure, and not Gaussian."""
    g = np.zeros(16, dtype=complex)
    g[0] = g[15] = 1 / np.sqrt(2)
    return np.outer(g, g.conj())


def quartic_unitary():
    """exp(i pi/4 g0 g1 g2 g3) on 2 qubits: even but not Gaussian."""
    quart = oracle.majorana_monomial(2, (0, 1, 2, 3))
    return np.cos(np.pi / 4) * np.eye(4, dtype=complex) + 1j * np.sin(np.pi / 4) * quart


# ---------------------------------------------------------------------------
# Reference fold: one Gate object at a time.  The rows and the block Q of
# each gate are built exactly as the per-gate evolution built them, so a
# fold over precomputed blocks must reproduce these carriers bit for bit.

def reference_block(g):
    """(rows, Q): the gate's rotation acts as Q on the listed axes only."""
    if g.kind == un_mod.FSWAP:
        a = g.line
        return [2 * a, 2 * a + 1, 2 * a + 2, 2 * a + 3], un_mod.FSWAP_ROTATION4
    j, k = g.axes
    c, s = np.cos(g.angle), np.sin(g.angle)
    return [j, k], np.array([[c, s], [-s, c]])


def reference_run(M_ext, gates):
    """(M, mu) after folding ``gates`` over a copy of the extended carrier."""
    Me = np.array(M_ext, dtype=float)
    for g in gates:
        rows, Q = reference_block(g)
        Me[rows, :] = Q @ Me[rows, :]
        Me[:, rows] = Me[:, rows] @ Q.T
    m = Me.shape[0] - 1
    Me = (Me - Me.T) / 2
    return Me[:m, :m], Me[:m, m]


def reference_rotation(n, gates):
    """Product rotation of ``gates`` (applied in order), one row update each."""
    acc = np.eye(2 * n + 1)
    for g in gates:
        rows, Q = reference_block(g)
        acc[rows, :] = Q @ acc[rows, :]
    return acc


# ---------------------------------------------------------------------------
# Reference code that only the tests call: independent definitions the
# fast paths are checked against.

def pfaffian_reference(M):
    """Pfaffian via the signed sum over perfect matchings.

    Factorial cost; an independent cross-check for small matrices
    (m <= 8 keeps it instantaneous).
    """
    M = antisym.check_antisymmetric(M)
    m = M.shape[0]
    if m % 2:
        raise antisym.DimensionError("Pfaffian requires even dimension")

    def expand(indices):
        if not indices:
            return 1.0
        a = indices[0]
        total = 0.0
        for pos in range(1, len(indices)):
            b = indices[pos]
            rest = indices[1:pos] + indices[pos + 1:]
            sign = -1.0 if pos % 2 == 0 else 1.0
            total += sign * M[a, b] * expand(rest)
        return total

    return expand(tuple(range(m)))


def measurement_cov(n, m):
    """Real covariance carrier of the projector O(K, x), times 2^{|K|-n}.

    Line q occupies Majorana axes (2q, 2q+1); outcome bit b contributes
    the canonical block with parameter -(-1)^b there (<Z_q> = (-1)^b
    and the carrier convention is M[2q, 2q+1] = -<Z_q>).
    """
    sim._check_lines(m.K, n)
    M = np.zeros((2 * n, 2 * n))
    idx = sim._measured_axes(m.K)
    M[np.ix_(idx, idx)] = sim._outcome_carrier(m)
    return M


def compose(U1, U2):
    """Unitary product U1 U2 (U2 applied first); rotations multiply."""
    if U1.n != U2.n:
        raise ValueError("cannot compose unitaries on different sizes")
    return un_mod.DGUnitary.from_rotation(U1.n, U1.rotation() @ U2.rotation())


def sequence_dense(seq):
    """Dense product unitary of a gate list (applied in order)."""
    acc = np.eye(1 << seq.n, dtype=complex)
    for g in seq:
        acc = gate_dense(g, seq.n) @ acc
    return acc


def gate_doc(g):
    """The document of one Gate, as a dict."""
    if g.kind == un_mod.FSWAP:
        return {"kind": g.kind, "line": g.line}
    return {"kind": g.kind, "axes": list(g.axes), "angle": g.angle}


def gate_dense(g, n):
    """Dense unitary of one gate, by a matrix exponential of its generator.

    The generator is the one the gate alphabet names: (theta/2) g_j g_k
    for a plane, the displacement i d_a g_a for a line1 gate on (a, 2n),
    and the four-term quadratic form of an fswap.
    """
    h, d = np.zeros((2 * n, 2 * n)), np.zeros(2 * n)
    if g.kind == un_mod.FSWAP:
        p, q, r, s = range(2 * g.line, 2 * g.line + 4)
        terms = (((p, s), np.pi / 4), ((q, r), -np.pi / 4),
                 ((p, q), -np.pi / 4), ((r, s), -np.pi / 4))
    else:
        j, k = g.axes
        terms = () if 2 * n in (j, k) else (((j, k), g.angle / 2),)
        if k == 2 * n:
            d[j] = -g.angle / 2
        elif j == 2 * n:
            d[k] = g.angle / 2
    for (j, k), c in terms:
        h[j, k], h[k, j] = c, -c
    return oracle.exp_quadratic(n, h, d)
