"""End-to-end circuit execution on the covariance representation.

A circuit is a checked input state and an ordered gate list.
Evolution updates a copy of the real extended carrier M_ext in place;
each gate touches at most four rows and columns, so a g-gate circuit
costs O(g n) plus O(n^2) bookkeeping, never more than O(n^2) memory.

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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .antisym import NumericalAdmissibilityError, as_bits, as_index, as_indices, canonical_matrix
from .state import ADMISSIBILITY_TOL, AdmissibilityError, DGaussState
from .unitary import GateSequence


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

# Side of the square blocks in which run symmetrizes its carrier in place.
SYMMETRIZE_BLOCK = 256


@dataclass(frozen=True)
class MeasurementOp:
    """Computational-basis projector data: outcome bits x on lines K."""

    K: tuple[int, ...]
    x: tuple[int, ...]

    def __post_init__(self):
        K = as_indices(self.K, None, "measured line")
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "x", as_bits(self.x, len(K)))


SAMPLING_LEAST = {"shots": 1, "seed": 0}


def sampling_arg(name: str, value) -> int:
    """Sampling argument ``name`` ("shots" or "seed") as an int of at least SAMPLING_LEAST[name]."""
    value = as_index(value, name)
    if value < SAMPLING_LEAST[name]:
        raise ValueError(f"{name} must be at least {SAMPLING_LEAST[name]}, got {value}")
    return value


class Sampling(NamedTuple):
    """A sampling request: ``sample(state, K, shots, seed)`` of a run's output state."""

    K: tuple[int, ...]
    shots: int
    seed: int


def _measured_axes(K) -> list[int]:
    """Majorana axes (2q, 2q+1) of each measured line q, in order."""
    return [a for line in K for a in (2 * line, 2 * line + 1)]


def _outcome_carrier(m: MeasurementOp) -> np.ndarray:
    """Carrier of O(K, x) on its measured axes: parameter -(-1)^b per line."""
    return canonical_matrix(np.where(m.x, 1.0, -1.0), 2 * len(m.K))


def _scaled_sqrt_det(A: np.ndarray, k: int, negative: str) -> float:
    """2^{-k} sqrt(det A), finite wherever that number is.

    det A is taken by LU and scaled by math.ldexp, which is exact.  det A
    itself overflows once k passes about 511 (a certain outcome has
    det A = 4^k); then the result is exp(log|det A| / 2 - k ln 2) from
    slogdet.  A determinant below -DET_CLAMP raises
    NumericalAdmissibilityError with the message ``negative``, formatted
    with the determinant.
    """
    with np.errstate(over="ignore"):
        det = float(np.real(np.linalg.det(A)))
    if not math.isfinite(det):
        sign, logdet = np.linalg.slogdet(A)
        if sign > 0:
            return math.exp(0.5 * float(logdet) - k * math.log(2))
    if det < -DET_CLAMP:
        raise NumericalAdmissibilityError(negative.format(det))
    return math.ldexp(math.sqrt(max(det, 0.0)), -k)


def _expectation_from_M(M: np.ndarray, m: MeasurementOp) -> float:
    k = len(m.K)
    idx = _measured_axes(m.K)
    # det(I - M_rho M_meas) = det(I_{2k} - S C) with S the compression
    # of M_rho onto the measured axes.
    S = M[np.ix_(idx, idx)]
    return _scaled_sqrt_det(np.eye(2 * k) - S @ _outcome_carrier(m), k,
                            "measurement determinant {} is negative beyond tolerance")


def expectation(s: DGaussState, m: MeasurementOp) -> float:
    """Probability Tr[O(K,x) rho] via the determinant formula."""
    as_indices(m.K, s.n, "measured line")
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
    return _scaled_sqrt_det(np.eye(2 * rho.n) - rho.M @ sigma.M, rho.n,
                            "overlap determinant {} negative")


# ---------------------------------------------------------------------------
# Product-state preparation

def product_covariance(blochs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    x, y, z = blochs.T
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


class NonGaussianProductError(AdmissibilityError):
    """Product state requested that no displaced Gaussian state represents."""


def product_is_gaussian(blochs: np.ndarray) -> bool:
    """Whether the tensor product of these Bloch states is Gaussian.

    A product of single-qubit states is a displaced Gaussian state
    exactly when every qubit after the first mixed one is diagonal:
    transverse displacement carries a Z string over all lower lines,
    and mixedness anywhere under that string breaks Wick factorization
    of the odd moments.  (Dense counterexample: (1+0.5Z)/2 x (1+0.6X)/2
    violates Gaussianity with third-moment deviation 0.45.)
    """
    mixed = np.flatnonzero(np.linalg.norm(blochs, axis=1) < 1.0 - PRODUCT_TOL)
    if not mixed.size:
        return True
    tail = blochs[mixed[0] + 1:]
    return not (np.hypot(tail[:, 0], tail[:, 1]) > PRODUCT_TOL).any()


def prepare_product(blochs) -> DGaussState:
    """Displaced Gaussian state of a tensor product of single-qubit states.

    The Bloch vectors are checked once, as an (n, 3) array that
    product_is_gaussian and product_covariance take as it is.  Products
    outside the Gaussian class raise NonGaussianProductError.
    """
    blochs = np.asarray(blochs, dtype=float)
    if blochs.ndim != 2 or blochs.shape[1] != 3:
        raise ValueError("each Bloch vector needs three components")
    long = np.linalg.norm(blochs, axis=1) > 1.0 + ADMISSIBILITY_TOL
    if long.any():
        raise AdmissibilityError(f"Bloch vector {blochs[long][0]} is longer than 1")
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
    """A checked input state and the gate sequence that acts on it; callers handle measurement."""

    state: DGaussState
    gates: GateSequence

    def __post_init__(self):
        if self.gates.n != self.state.n:
            raise ValueError("gate list size differs from circuit size")

    @property
    def n(self) -> int:
        return self.state.n

    def input_state(self) -> DGaussState:
        return self.state


def run(c: Circuit) -> DGaussState:
    """Fold the circuit's gates over a copy of its input state.

    The extended carrier is a fresh copy of the held input's, updated in
    place.  Each gate's fold block (slice, rows, Q) comes with its
    sequence (see GateSequence): the gate multiplies its two or four rows
    by Q and the matching columns by Q^T, so the loop builds no per-gate
    object.  The rows are a slice view, evenly strided, that BLAS reads
    in place; the columns are the same rows of the transposed view,
    gathered and scattered back.  With OpenBLAS's 2x2 and 4x4 products
    both give the bits of the gathered forms Q @ Me[rows, :] and
    Me[:, rows] @ Q^T, signed zeros included (the fold-reference tests
    pin this).  A column slice, strided in both dimensions, would be
    multiplied by numpy's own loop instead of BLAS: slower, and not the
    call those tests pin.  Gates were validated when their sequence was
    built, and the output carrier is antisymmetric by construction, so
    neither is checked again here.

    The carrier is then replaced by (Me - Me^T) / 2 in place, a pair of
    SYMMETRIZE_BLOCK-square blocks at a time: one block's difference goes
    to a scratch block and the other's is written in place, so both read
    old values.  These are the bits of the whole-matrix expression, with
    peak memory at the held input plus one carrier.
    """
    Me = c.input_state().M_ext
    MT = Me.T
    for sl, rows, Q in c.gates.blocks:
        Me[sl] = Q @ Me[sl]
        MT[rows] = Q @ MT[rows]
    b = SYMMETRIZE_BLOCK
    scratch = np.empty((min(b, len(Me)),) * 2)
    for i in range(0, len(Me), b):
        for j in range(i, len(Me), b):
            X, Y = Me[i:i + b, j:j + b], Me[j:j + b, i:i + b]
            upper = np.subtract(X, Y.T, out=scratch[:len(X), :len(Y)])
            if j > i:
                np.divide(np.subtract(Y, X.T, out=Y), 2, out=Y)
            np.divide(upper, 2, out=X)
    m = 2 * c.n
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


def sample(s: DGaussState, K, shots: int, seed: int) -> np.ndarray:
    """Draw computational-basis outcomes on lines K, one line at a time.

    Returns the (shots, |K|) uint8 array of outcome bits: row i is shot
    i, column j the bit of line K[j].

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
    K = as_indices(K, s.n, "measured line")
    k = len(K)
    shots, seed = sampling_arg("shots", shots), sampling_arg("seed", seed)
    out = np.empty((shots, k), dtype=np.uint8)
    if k == 0:
        return out
    idx = _measured_axes(K)
    S0 = s.M[np.ix_(idx, idx)]
    rows = max(1, SAMPLE_CHUNK_BYTES // S0.nbytes)
    start = 0
    for u in _uniform_chunks(seed, shots, k, rows):
        S = np.broadcast_to(S0, (len(u),) + S0.shape)
        b = out[start:start + len(u)].view(bool)
        start += len(u)
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
    return out
