"""Shared random-instance builders and reference implementations for the test suite."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from dgsim import antisym, oracle, serialization as ser, simulator as sim, state as st_mod, unitary as un_mod


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


class GateRow(NamedTuple):
    """One gate of a sequence as its columns hold it, with Gate's fields."""

    kind: str
    axes: tuple[int, int] | None
    angle: float | None
    line: int | None


def gate_rows(seq):
    """The gates of a sequence, read from its columns kind, axes, line and angle."""
    columns = zip(seq.kind.tolist(), seq.axes.tolist(), seq.line.tolist(), seq.angle.tolist())
    return [GateRow(un_mod.FSWAP, None, None, line) if un_mod.KINDS[code] == un_mod.FSWAP
            else GateRow(un_mod.KINDS[code], (j, k), angle, None)
            for code, (j, k), line, angle in columns]


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
    quart = majorana_monomial(2, (0, 1, 2, 3))
    return np.cos(np.pi / 4) * np.eye(4, dtype=complex) + 1j * np.sin(np.pi / 4) * quart


# ---------------------------------------------------------------------------
# Reference fold: one Gate object at a time.  The rows and the block Q of
# each gate are built exactly as the per-gate evolution built them, so a
# fold over precomputed blocks must reproduce these carriers bit for bit.

def fswap_generator4():
    """H4: the adjacent fermionic swap's quadratic generator on its four Majorana axes.

    ``unitary.FSWAP_ROTATION4`` is the literal of scipy.linalg.expm(2 * H4).
    """
    H4 = np.zeros((4, 4))
    for (j, k), c in (((0, 3), np.pi / 4), ((1, 2), -np.pi / 4),
                      ((0, 1), -np.pi / 4), ((2, 3), -np.pi / 4)):
        H4[j, k] = c
        H4[k, j] = -c
    return H4


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


def gather_fold(c):
    """The carrier ``simulator.run`` folds, as it folded before slice views: the bit reference.

    Each gate's rows (in natural order) and Q are built from the
    sequence's columns; it gathers those rows and columns by fancy
    indexing, multiplies them by Q and Q^T and scatters them back.  The
    result is not symmetrized.
    """
    Me = c.input_state().M_ext
    g = c.gates
    fswap = g.kind == un_mod._FSWAP
    plane = iter(zip(g.axes[~fswap], un_mod._plane_rotations(g.angle[~fswap])))
    swap = iter(2 * g.line[fswap, None] + np.arange(4))
    for f in fswap.tolist():
        rows, Q = (next(swap), un_mod.FSWAP_ROTATION4) if f else next(plane)
        Me[rows, :] = Q @ Me[rows, :]
        Me[:, rows] = Me[:, rows] @ Q.T
    return Me


def natural_order(X):
    """The (2n+1)-square carrier in a (2n+2)-square fold-order buffer X, axes 0..2n in order.

    Fold order (``Circuit.input_carrier``) holds the extension axis 2n at
    row and column 0 and axis a < 2n at a + 1; the last row and column are spare.
    """
    order = list(range(1, len(X) - 1)) + [0]
    return X[np.ix_(order, order)]


def gather_run(c):
    """(M, mu) of ``gather_fold(c)`` symmetrized, the bit reference of ``simulator.run``.

    The carrier is symmetrized a pair of SYMMETRIZE_BLOCK-square blocks
    at a time, both computed into temporaries before either is written.
    """
    Me = gather_fold(c)
    b = st_mod.SYMMETRIZE_BLOCK
    for i in range(0, len(Me), b):
        for j in range(i, len(Me), b):
            I, J = slice(i, i + b), slice(j, j + b)
            Me[I, J], Me[J, I] = (Me[I, J] - Me[J, I].T) / 2, (Me[J, I] - Me[I, J].T) / 2
    m = 2 * c.n
    return Me[:m, :m], Me[:m, m]


def is_exit_of(s, E):
    """Whether unchecked state s holds (E - E^T) / 2 of raw carrier E, bit for bit.

    Its M then equals -M^T exactly, and its mu is the symmetrized mean
    column (E[:m, m] - E[m, :m]) / 2.
    """
    m = 2 * s.n
    S = (E - E.T) / 2
    return (np.array_equal(s.M, -s.M.T) and s.M.tobytes() == S[:m, :m].tobytes()
            and s.mu.tobytes() == S[:m, m].tobytes())


def per_shot_sample(s, K, shots, seed):
    """``simulator.sample`` as it sampled before shots shared their prefixes: the bit reference.

    Every shot of a chunk carries its own copy of the compression (a
    stride-0 broadcast until the first conditioning), and every line
    conditions every shot.  The RNG block, the chunks of
    ``simulator.SAMPLE_CHUNK_BYTES``, the line rule, the range check and
    the forced branch are those of ``simulator.sample``.
    """
    K = antisym.as_indices(K, s.n, "measured line")
    k = len(K)
    shots, seed = sim.sampling_arg("shots", shots), sim.sampling_arg("seed", seed)
    out = np.empty((shots, k), dtype=np.uint8)
    if k == 0:
        return out
    idx = [a for q in K for a in (2 * q, 2 * q + 1)]
    S0 = sim._refuse_inadmissible(s.M[np.ix_(idx, idx)])
    rows = max(1, sim.SAMPLE_CHUNK_BYTES // S0.nbytes)
    start = 0
    for u in sim._uniform_chunks(seed, shots, k, rows):
        S = np.broadcast_to(S0, (len(u),) + S0.shape)
        b = out[start:start + len(u)].view(bool)
        start += len(u)
        for j in range(k):
            p0 = (1.0 - S[:, 0, 1]) / 2
            bad = ~((p0 >= -1e-9) & (p0 <= 1 + 1e-9))
            if bad.any():
                raise sim.NumericalAdmissibilityError(f"conditional probability {p0[bad][0]} outside [0, 1]")
            bj = u[:, j] >= p0
            b[:, j] = np.where(np.where(bj, 1.0 - p0, p0) > sim.PIVOT_TOL, bj, p0 < 0.5)
            if j + 1 < k:
                S = sim._condition(S, b[:, j])
    return out


def row_walk_sequence(docs, n):
    """The GateSequence of a gate list read gate by gate with ``unitary._gate_row``: the parse's bit reference.

    A GateError is raised as the parser's SchemaError, at the same location.
    """
    try:
        rows = [un_mod._gate_row(obj, i) for i, obj in enumerate(docs)]
        kind, j, k, line, angle = zip(*rows) if rows else ((),) * 5
        return un_mod.GateSequence._from_columns(n, kind, j, k, line, antisym.wrap_angles(angle))
    except un_mod.GateError as exc:
        field = f".{exc.field}" if exc.field else ""
        raise ser.SchemaError(str(exc), f"$.gates[{exc.index}]{field}") from None


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


@dataclass(frozen=True)
class PlaneRotation:
    """Rotation by ``angle`` in the coordinate plane spanned by two axes.

    The angle is normalized into (-pi, pi] with scalar sine, cosine and
    atan2 calls: the definition ``antisym.wrap_angles`` and ``Gate``
    must match bit for bit.
    """

    axes: tuple[int, int]
    angle: float

    def __post_init__(self):
        j, k = self.axes
        if j == k:
            raise ValueError("plane rotation needs two distinct axes")
        a = self.angle
        a = math.atan2(np.sin(a), np.cos(a))
        if a <= -math.pi:
            a = math.pi
        object.__setattr__(self, "angle", float(a))


def plane_decompose_reference(R, adjacency) -> list[PlaneRotation]:
    """``antisym.plane_decompose`` one rotation object at a time.

    ``adjacency(j, k)`` says whether the (j, k) plane is allowed.  The
    matrix is updated in place, row pair by row pair, and every rotation
    is a PlaneRotation (normalized when found, and again when inverted).
    """
    R = antisym.check_rotation(R)
    m = R.shape[0]
    neighbors = {v: [] for v in range(m)}
    for j in range(m):
        for k in range(j + 1, m):
            if adjacency(j, k) or adjacency(k, j):
                neighbors[j].append(k)
                neighbors[k].append(j)
    tree = {v: [] for v in range(m)}
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    tree[v].append(u)
                    tree[u].append(v)
                    nxt.append(u)
        frontier = nxt
    if len(seen) != m:
        raise antisym.DecompositionError("adjacency graph is disconnected")
    A = R.copy()
    applied = []

    def rotate(a, b, angle):
        c, s = np.cos(angle), np.sin(angle)
        ra, rb = A[a].copy(), A[b].copy()
        A[a] = c * ra + s * rb
        A[b] = -s * ra + c * rb
        applied.append(PlaneRotation((a, b), angle))

    remaining = set(range(m))
    order = []
    work = {v: set(t) for v, t in tree.items()}
    while len(order) < m - 1:
        leaf = next(v for v in sorted(work) if len(work[v]) == 1)
        order.append(leaf)
        (p,) = work[leaf]
        work[p].discard(leaf)
        del work[leaf]
    for c in order:
        parent, depth, frontier = {c: None}, {c: 0}, [c]
        while frontier:
            nxt = []
            for v in frontier:
                for u in tree[v]:
                    if u in remaining and u not in parent:
                        parent[u] = v
                        depth[u] = depth[v] + 1
                        nxt.append(u)
            frontier = nxt
        for r in sorted(parent, key=lambda v: -depth[v]):
            if r == c or abs(A[r, c]) < 1e-15:
                continue
            p = parent[r]
            rotate(p, r, math.atan2(A[r, c], A[p, c]))
        if A[c, c] < 0:
            rotate(c, min(v for v in tree[c] if v in remaining and v != c), math.pi)
        remaining.discard(c)
    result = [PlaneRotation(g.axes, -g.angle) for g in reversed(applied)]
    return [g for g in result if abs(g.angle) > 1e-15]


def measurement_cov(n, m):
    """Real covariance carrier of the projector O(K, x), times 2^{|K|-n}.

    Line q occupies Majorana axes (2q, 2q+1); outcome bit b contributes
    the canonical block with parameter -(-1)^b there (<Z_q> = (-1)^b
    and the carrier convention is M[2q, 2q+1] = -<Z_q>).
    """
    antisym.as_indices(m.K, n, "measured line")
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
    for g in gate_rows(seq):
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


def gate_rotation(g, n):
    """Full (2n+1)-dimensional rotation effected by one gate."""
    rows, Q = reference_block(g)
    R = np.eye(2 * n + 1)
    R[np.ix_(rows, rows)] = Q
    return R


def plane_rotation_matrix(dim, j, k, angle):
    """exp(angle * s_jk) with s_jk = |j><k| - |k><j|."""
    R = np.eye(dim)
    R[[j, k], [j, k]] = np.cos(angle)
    R[j, k], R[k, j] = np.sin(angle), -np.sin(angle)
    return R


def mask(J):
    """Bitmask of the Majorana index set J: the index of gamma_J's moment."""
    return sum(1 << a for a in J)


def state_from_dense(A):
    """Covariance state read off a dense state's moments of degree <= 2."""
    M_ext = oracle.covariance_from_dense(oracle.check_state(A))
    m = M_ext.shape[0] - 1
    return st_mod.DGaussState(m // 2, M_ext[:m, :m], M_ext[:m, m])


def complex_matrix_doc(A):
    """A dense matrix as a document's [[ [re, im], ... ], ...]."""
    A = np.asarray(A, dtype=complex)
    return np.stack([A.real, A.imag], axis=-1).tolist()


# ---------------------------------------------------------------------------
# Dense references: Majorana monomials, fermionic swaps, phase alignment.

def majorana_monomial(n, J):
    """Dense ordered product gamma_J."""
    phase, codes = oracle.monomial_string(n, J)
    return phase * oracle._pauli_string_dense(codes)


def permutation_dense(perm, d):
    """Dense matrix D of a signed permutation: D[y, perm[y]] = d[y], zero elsewhere."""
    D = np.zeros((len(perm), len(perm)), dtype=complex)
    D[np.arange(len(perm)), perm] = d
    return D


def fswap(n, a, b):
    """Dense fermionic swap of lines a < b: adjacent swaps, conjugated outwards."""
    if not 0 <= a < b < n:
        raise ValueError("need 0 <= a < b < n")
    if b > a + 1:
        S1 = fswap(n, a, a + 1)
        return S1 @ fswap(n, a + 1, b) @ S1
    return permutation_dense(*oracle.fswap_permutation(n, a))


def phase_aligned_distance(U, V):
    """Max-entry distance between U and V after optimal global-phase alignment."""
    tr = np.trace(U.conj().T @ V)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return float(np.abs(U * phase - V).max())


# ---------------------------------------------------------------------------
# Elementary-gate decomposition of the embedding unitary V.

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.diag([1, 1j])
# "A" is H S^dagger, which maps Y to Z by conjugation.
ONE_QUBIT = {"A": _H @ _S.conj().T, "A_dg": _S @ _H, "S": _S}


@dataclass(frozen=True)
class ElementaryGate:
    """Named qubit gate: "A", "A_dg" or "S" on line ``lines[0]``, or "CX"
    with control ``lines[0]`` and target ``lines[1]``."""

    name: str
    lines: tuple[int, ...]

    def dense(self, n_total):
        if self.name != "CX":
            ops = [ONE_QUBIT[self.name] if q == self.lines[0] else np.eye(2) for q in range(n_total)]
            return functools.reduce(np.kron, ops)
        control, target = self.lines
        rows = np.arange(1 << n_total)
        out = np.zeros((len(rows), len(rows)), dtype=complex)
        out[rows, rows ^ (((rows >> (n_total - 1 - control)) & 1) << (n_total - 1 - target))] = 1
        return out


def embed_v_gates(n):
    """Elementary gates of the embedding unitary V on n+1 lines, first gate first.

    A = H S^dagger on the ancilla line n, a CX fan-in from every data line
    into the ancilla, a phase gate S on the ancilla, the mirrored fan-out,
    and A^dagger.  The dense product equals oracle.embed_V(n) up to global
    phase.
    """
    fan_in = [ElementaryGate("CX", (j, n)) for j in range(n)]
    return (ElementaryGate("A", (n,)), *fan_in, ElementaryGate("S", (n,)), *fan_in[::-1],
            ElementaryGate("A_dg", (n,)))


def elementary_dense(gates, n_total):
    """Dense product of an elementary gate sequence (first gate acts first)."""
    out = np.eye(1 << n_total, dtype=complex)
    for g in gates:
        out = g.dense(n_total) @ out
    return out
