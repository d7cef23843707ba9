"""End-to-end circuit execution on the covariance representation.

A circuit is an input-state specification, an ordered gate list, and a
measurement request.  Evolution updates the real extended carrier
M_ext in place; each gate touches at most four rows and columns, so a
g-gate circuit costs O(g n) plus O(n^2) bookkeeping, never more than
O(n^2) memory.

Measurement uses the determinant formula: the probability of outcome
bits x on lines K is 2^{-|K|} sqrt(det(I - M_rho M_{K,x})), evaluated
through the 2|K| x 2|K| compression of M_rho onto the measured
Majorana axes.  Sampling conditions that compression one line at a
time: the line's conditional probability is one entry, and fixing its
bit is a rank-2 Schur update, O(|K|^2) per line per shot.  Shots are
processed in chunks, each an array of compressions; no probability is
memoized.

RNG contract: ``sample`` consumes numpy's default_rng(seed) as one
(shots, |K|) uniform block, shot i using row i and line j column j.
The block is drawn in consecutive row chunks from the same generator,
which yields the same numbers as drawing it at once, so memory stays
at one chunk.  A partition of the shot range that slices the same
block row-wise reproduces the sequential output exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antisym import NumericalAdmissibilityError
from .state import DGaussState, from_diagonal
from .unitary import GateSequence, gate_update


DET_CLAMP = 1e-10

# A sampled bit whose conditional probability is at most this is
# treated as impossible: the line takes the likelier bit instead.
PIVOT_TOL = 1e-12

# Bloch-vector lengths and transverse parts within this of 1 and 0
# count as pure and diagonal.
PRODUCT_TOL = 1e-9

# Working-set budget of one sampling chunk: the (rows, 2|K|, 2|K|) stack
# of conditioned compressions.
SAMPLE_CHUNK_BYTES = 8 << 20


def _check_lines(K, n: int | None = None) -> tuple[int, ...]:
    """Measured lines K as ints: strictly increasing and, given n, in [0, n)."""
    K = tuple(int(q) for q in K)
    if any(b <= a for a, b in zip(K, K[1:])):
        raise ValueError("measured lines must be strictly increasing")
    if n is not None:
        for line in K:
            if not 0 <= line < n:
                raise IndexError(f"measured line {line} out of range")
    return K


@dataclass(frozen=True)
class MeasurementOp:
    """Computational-basis projector data: outcome bits x on lines K."""

    K: tuple[int, ...]
    x: tuple[int, ...]

    def __post_init__(self):
        K = tuple(int(k) for k in self.K)
        x = tuple(int(b) for b in self.x)
        if len(K) != len(x):
            raise ValueError("line subset and outcome lengths differ")
        if any(b not in (0, 1) for b in x):
            raise ValueError("outcome bits must be 0 or 1")
        _check_lines(K)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "x", x)


def measurement_cov(n: int, m: MeasurementOp) -> np.ndarray:
    """Real covariance carrier of the projector O(K, x), times 2^{|K|-n}.

    Line q occupies Majorana axes (2q, 2q+1); outcome bit b contributes
    the canonical block with parameter -(-1)^b there (<Z_q> = (-1)^b
    and the carrier convention is M[2q, 2q+1] = -<Z_q>).
    """
    _check_lines(m.K, n)
    M = np.zeros((2 * n, 2 * n))
    for line, bit in zip(m.K, m.x):
        c = -((-1) ** bit)
        M[2 * line, 2 * line + 1] = c
        M[2 * line + 1, 2 * line] = -c
    return M


def _expectation_from_M(M: np.ndarray, m: MeasurementOp) -> float:
    k = len(m.K)
    if k == 0:
        return 1.0
    idx = []
    for line in m.K:
        idx.extend((2 * line, 2 * line + 1))
    C = np.zeros((2 * k, 2 * k))
    for j, bit in enumerate(m.x):
        c = -((-1) ** bit)
        C[2 * j, 2 * j + 1] = c
        C[2 * j + 1, 2 * j] = -c
    # det(I - M_rho M_meas) = det(I_{2k} - S C) with S the compression
    # of M_rho onto the measured axes.
    S = M[np.ix_(idx, idx)]
    det = float(np.real(np.linalg.det(np.eye(2 * k) - S @ C)))
    if det < -DET_CLAMP:
        raise NumericalAdmissibilityError(
            f"measurement determinant {det} is negative beyond tolerance"
        )
    return float(np.sqrt(max(det, 0.0))) / (1 << k)


def expectation(s: DGaussState, m: MeasurementOp) -> float:
    """Probability Tr[O(K,x) rho] via the determinant formula."""
    _check_lines(m.K, s.n)
    return _expectation_from_M(s.M, m)


def overlap(rho: DGaussState, sigma: DGaussState) -> float:
    """Tr(rho sigma) for even sigma: 2^{-n} sqrt(det(I - M_rho M_sigma)).

    Even-degree moments of a displaced state involve only its
    covariance block, so rho's mean never enters; sigma must be even.
    """
    if rho.n != sigma.n:
        raise ValueError("overlap inputs have different sizes")
    if not sigma.is_even:
        raise ValueError("overlap requires the second state to be even")
    det = float(np.real(np.linalg.det(np.eye(2 * rho.n) - rho.M @ sigma.M)))
    if det < -DET_CLAMP:
        raise NumericalAdmissibilityError(f"overlap determinant {det} negative")
    return float(np.sqrt(max(det, 0.0))) / (1 << rho.n)


# ---------------------------------------------------------------------------
# Product-state preparation

def _check_blochs(blochs) -> list[np.ndarray]:
    out = [np.asarray(r, dtype=float) for r in blochs]
    for r in out:
        if r.shape != (3,):
            raise ValueError("each Bloch vector needs three components")
        if np.linalg.norm(r) > 1.0 + 1e-9:
            raise ValueError(f"Bloch vector {r} is longer than 1")
    return out


def product_covariance(blochs) -> tuple[np.ndarray, np.ndarray]:
    """Covariance data (M, mu) of a tensor product of single-qubit states.

    Direct second-moment assembly.  Majorana operators carry Z strings
    over lower lines, so the moments pick up prefix factors of the z
    components: with (x_q, y_q, z_q) the Bloch vector of line q,

        mu_{2q}   = (prod_{p<q} z_p) x_q,
        mu_{2q+1} = (prod_{p<q} z_p) y_q,
        M[2q, 2q+1] = -z_q,
        M[2q+s, 2q'+t] = L_s(q) (prod_{q<p<q'} z_p) R_t(q'),  q < q',

    with left factors L_0 = y_q, L_1 = -x_q and right factors
    R_0 = x_{q'}, R_1 = y_{q'}.  The z products are running products,
    so assembly costs O(n^2).
    """
    x, y, z = np.array(_check_blochs(blochs)).reshape(-1, 3).T
    n = len(z)
    M = np.zeros((2 * n, 2 * n))
    for q in range(n - 1):
        between = np.cumprod(np.concatenate(([1.0], z[q + 1:n - 1])))
        for s, left in ((0, y[q]), (1, -x[q])):
            M[2 * q + s, 2 * q + 2::2] = left * between * x[q + 1:]
            M[2 * q + s, 2 * q + 3::2] = left * between * y[q + 1:]
    M = M - M.T
    q = np.arange(n)
    M[2 * q, 2 * q + 1] = -z
    M[2 * q + 1, 2 * q] = z
    prefix = np.cumprod(np.concatenate(([1.0], z[:-1])))
    mu = np.ravel(np.column_stack((prefix * x, prefix * y)))
    return M, mu


class NonGaussianProductError(ValueError):
    """Product state requested that no displaced Gaussian state represents."""


def product_is_gaussian(blochs) -> bool:
    """Whether the tensor product of these Bloch states is Gaussian.

    A product of single-qubit states is a displaced Gaussian state
    exactly when every qubit after the first mixed one is diagonal:
    transverse displacement carries a Z string over all lower lines,
    and mixedness anywhere under that string breaks Wick factorization
    of the odd moments.  (Dense counterexample: (1+0.5Z)/2 x (1+0.6X)/2
    violates Gaussianity with third-moment deviation 0.45.)
    """
    blochs = _check_blochs(blochs)
    first_mixed = None
    for q, r in enumerate(blochs):
        if first_mixed is not None and q > first_mixed:
            if np.hypot(r[0], r[1]) > PRODUCT_TOL:
                return False
        if first_mixed is None and np.linalg.norm(r) < 1.0 - PRODUCT_TOL:
            first_mixed = q
    return True


def prepare_product(blochs) -> DGaussState:
    """Displaced Gaussian state of a tensor product of single-qubit states.

    The carrier is assembled directly by product_covariance, for pure
    and mixed inputs alike.  Products outside the Gaussian class (see
    product_is_gaussian) raise NonGaussianProductError.
    """
    if not product_is_gaussian(blochs):
        raise NonGaussianProductError(
            "a qubit after the first mixed one is transversely displaced; "
            "this product state is not a displaced Gaussian state"
        )
    return DGaussState(len(blochs), *product_covariance(blochs))


# ---------------------------------------------------------------------------
# Circuits

@dataclass(frozen=True)
class Circuit:
    """Input spec + gate list (+ optional measurement, handled by callers).

    ``input_spec`` is one of ("lambdas", list), ("bloch", list of
    3-vectors), or ("covariance", (M, mu)).
    """

    n: int
    input_spec: tuple
    gates: GateSequence

    def __post_init__(self):
        if self.gates.n != self.n:
            raise ValueError("gate list size differs from circuit size")
        kind = self.input_spec[0]
        if kind not in ("lambdas", "bloch", "covariance"):
            raise ValueError(f"unknown input kind {kind!r}")

    def input_state(self) -> DGaussState:
        kind, payload = self.input_spec
        if kind == "lambdas":
            if len(payload) != self.n:
                raise ValueError("diagonal input length differs from n")
            return from_diagonal(payload)
        if kind == "bloch":
            if len(payload) != self.n:
                raise ValueError("Bloch input length differs from n")
            return prepare_product(payload)
        return DGaussState(self.n, *payload)


def run(c: Circuit) -> DGaussState:
    """Fold the circuit's gates over its input state.

    The extended carrier is updated in place; each gate multiplies at
    most four rows and the matching columns by its small orthogonal
    block.  Gates were validated when their sequence was built, and the
    output carrier is antisymmetric by construction, so neither is
    checked again here.
    """
    Me = c.input_state().M_ext
    for g in c.gates:
        rows, Q = gate_update(g, c.n)
        Me[rows, :] = Q @ Me[rows, :]
        Me[:, rows] = Me[:, rows] @ Q.T
    m = 2 * c.n
    Me = (Me - Me.T) / 2
    return DGaussState(c.n, Me[:m, :m], Me[:m, m], check=False)


def _uniform_chunks(seed: int, shots: int, k: int, rows: int):
    """Row blocks of ``default_rng(seed).random((shots, k))``, ``rows`` at a time.

    numpy fills a uniform block in row-major order from one stream, so
    the blocks concatenate to the single (shots, k) draw bit for bit.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, shots, rows):
        yield rng.random((min(rows, shots - start), k))


def _condition(S: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Condition a stack of compressions on bits b of their first line.

    S has shape (c, 2m, 2m); row i is conditioned on bit b[i].  The
    pivot beta = S[i, 0, 1] + (1 if b[i] else -1) satisfies
    |beta| = 2 p(b | conditioning so far), and the result is the
    (c, 2m-2, 2m-2) Schur complement S[2:, 2:] - R J R^T / beta with
    R = S[2:, :2] and J = [[0, 1], [-1, 0]].  Every pivot must be away
    from zero.
    """
    beta = S[:, 0, 1] + np.where(b, 1.0, -1.0)
    JRt = np.stack((S[:, 2:, 1], -S[:, 2:, 0]), axis=1) / beta[:, None, None]
    out = np.matmul(S[:, 2:, :2], JRt)
    return np.subtract(S[:, 2:, 2:], out, out=out)


def sample(s: DGaussState, K, shots: int, seed: int) -> list[str]:
    """Draw computational-basis outcomes on lines K, one line at a time.

    Every shot of a chunk carries its own copy of the 2|K| x 2|K|
    compression of the carrier onto the measured axes.  Line j reads
    p0 = (1 - S[0, 1]) / 2 from the conditioned compression, draws bit 0
    when the shot's uniform is below p0, and conditions on the bit by a
    rank-2 Schur update (_condition).  That is O(|K|^2) per line per
    shot, done as array operations over the chunk.  A bit whose
    conditional probability is at round-off level is never drawn: the
    line takes the likelier bit instead.  Deterministic for a given
    seed (see the module docstring for the exact RNG contract).
    """
    K = _check_lines(K, s.n)
    k = len(K)
    if shots < 1:
        raise ValueError("need at least one shot")
    if k == 0:
        return [""] * shots
    idx = [a for line in K for a in (2 * line, 2 * line + 1)]
    S0 = s.M[np.ix_(idx, idx)]
    rows = max(1, SAMPLE_CHUNK_BYTES // S0.nbytes)
    out: list[str] = []
    for u in _uniform_chunks(seed, shots, k, rows):
        S = np.broadcast_to(S0, (len(u),) + S0.shape)
        b = np.empty(u.shape, dtype=bool)
        for j in range(k):
            p0 = (1.0 - S[:, 0, 1]) / 2
            bad = ~((p0 >= -1e-9) & (p0 <= 1 + 1e-9))  # NaN included
            if bad.any():
                raise NumericalAdmissibilityError(
                    f"conditional probability {p0[bad][0]} outside [0, 1]"
                )
            bj = u[:, j] >= p0
            # Forced branch: never condition on a (numerically) impossible bit.
            b[:, j] = np.where(np.where(bj, 1.0 - p0, p0) > PIVOT_TOL, bj, p0 < 0.5)
            if j + 1 < k:
                S = _condition(S, b[:, j])
        text = (b.view(np.uint8) + ord("0")).tobytes().decode()
        out.extend(text[i:i + k] for i in range(0, len(text), k))
    return out
