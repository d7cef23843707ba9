"""End-to-end circuit execution on the covariance representation.

A circuit is a checked input, an ordered gate list and, optionally,
the lines to be measured.  Evolution updates one real extended carrier
M_ext in place, in fold order (axis 2n at row 0, axis a < 2n at row
a + 1: ``unitary._gate_blocks`` at shift 1, a shift and a buffer this
module alone picks), where each gate touches at most four consecutive
rows and columns, and those only within the band they may reach, held
as each row's first column.  g gates cost O(g w) for band width w (at
most 2n+1, 2 to start from a diagonal input) plus O(n^2) bookkeeping.
Memory beyond the held input (a diagonal input holds its lambdas alone)
is one dense carrier, or, for a diagonal input with measured lines,
band storage of O(n w).  With measured lines K, ``run`` returns the
output reduced to K, the compression that measurement reads.  Both
leave via ``carrier_state``.

Measurement uses the determinant formula: the probability of outcome
bits x on lines K is 2^{-|K|} sqrt(det(I - M_rho M_{K,x})), evaluated
through the 2|K| x 2|K| compression of M_rho onto the measured
Majorana axes.  Sampling conditions that compression one line at a
time: the line's conditional probability is one entry, and fixing its
bit is a rank-2 Schur update, O(|K|^2) per line.  Shots are processed in
chunks; within one, shots that share a bit prefix share one conditioned
compression, so each line conditions every distinct prefix once.

RNG contract: ``sample`` consumes numpy's default_rng(seed) as one
(shots, |K|) uniform block, shot i using row i and line j column j.
The block is drawn in consecutive row chunks from the same generator,
which yields the same numbers as drawing it at once, so memory stays
at one chunk.  A partition of the shot range that slices the same
block row-wise reproduces the sequential output exactly.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .antisym import NumericalAdmissibilityError, _as_real, as_bits, as_index, as_indices, canonical_matrix
from .state import (ADMISSIBILITY_TOL, AdmissibilityError, DGaussState, _unchecked, carrier_state, diagonal_parameters,
                    from_diagonal)
from .unitary import GateSequence, _gate_blocks


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
    """A sampling request: ``sample(state, K, shots, seed)`` of a run's output state on lines K."""

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


def _refuse_inadmissible(S: np.ndarray) -> np.ndarray:
    """Return S, or raise AdmissibilityError unless its canonical values are at most 1 + ADMISSIBILITY_TOL.

    First the O(k) line rule: a line's |S[2j, 2j+1]| above 1 + tol, whose
    sqrt(det) factor (1 - lambda)/2 the determinant would hide.  Then the
    full rule, which also sees drift between lines: as S^2 = -S S^T,
    (1 + tol)^2 I + S^2 is positive definite exactly when every canonical
    value is below 1 + tol, tested by one matmul and one Cholesky.  A NaN
    passes both, for the checks after them to meet.
    """
    line = np.abs(np.diagonal(S, 1)[::2])
    if (line > 1.0 + ADMISSIBILITY_TOL).any():
        raise AdmissibilityError(
            f"a line's covariance entry has magnitude {line.max()} above 1: not an admissible state"
        )
    try:
        np.linalg.cholesky((1.0 + ADMISSIBILITY_TOL) ** 2 * np.eye(len(S)) - S @ S.T)
    except np.linalg.LinAlgError:
        raise AdmissibilityError("a canonical value of the covariance exceeds 1: not an admissible state") from None
    return S


def _expectation_from_M(M: np.ndarray, m: MeasurementOp) -> float:
    k = len(m.K)
    idx = _measured_axes(m.K)
    # det(I - M_rho M_meas) = det(I_{2k} - S C) with S the compression
    # of M_rho onto the measured axes.
    S = _refuse_inadmissible(M[np.ix_(idx, idx)])
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
    Both covariances pass ``_refuse_inadmissible``, as in measurement.
    """
    if rho.n != sigma.n:
        raise ValueError("overlap inputs have different sizes")
    if not sigma.is_even:
        raise ValueError("overlap requires the second state to be even")
    _refuse_inadmissible(rho.M)
    _refuse_inadmissible(sigma.M)
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
    product_is_gaussian and product_covariance take as it is; products
    outside the Gaussian class raise NonGaussianProductError.  Lengths
    at most 1 are the canonical values, so this O(n) rule is the one
    check.  Longer ones raise the largest by up to about n times their
    excess, so past ADMISSIBILITY_TOL (or NaN) ``DGaussState`` checks too.
    """
    blochs = _as_real(blochs, "Bloch vectors")
    if blochs.ndim != 2 or blochs.shape[1] != 3:
        raise ValueError("each Bloch vector needs three components")
    norms = np.linalg.norm(blochs, axis=1)
    long = norms > 1.0 + ADMISSIBILITY_TOL
    if long.any():
        raise AdmissibilityError(f"Bloch vector {blochs[long][0]} is longer than 1")
    if not product_is_gaussian(blochs):
        raise NonGaussianProductError(
            "a qubit after the first mixed one is transversely displaced; "
            "this product state is not a displaced Gaussian state"
        )
    short = len(blochs) * (norms.max(initial=1.0) - 1.0) <= ADMISSIBILITY_TOL  # NaN excluded
    return (_unchecked if short else DGaussState)(len(blochs), *product_covariance(blochs))


# ---------------------------------------------------------------------------
# Circuits

@dataclass(frozen=True)
class Circuit:
    """A checked input, the gates that act on it, and the lines a caller will measure (None: all).

    The input is a DGaussState, or the lambdas of ``from_diagonal``, held
    as that checked vector alone.  ``run`` returns the output on ``lines``.
    """

    state: DGaussState | np.ndarray
    gates: GateSequence
    lines: tuple[int, ...] | None = None

    def __post_init__(self):
        if isinstance(self.state, DGaussState):
            size = self.state.n
        else:
            object.__setattr__(self, "state", diagonal_parameters(self.state))
            size = len(self.state)
        if self.gates.n != size:
            raise ValueError("gate list size differs from circuit size")
        if self.lines is not None:
            object.__setattr__(self, "lines", as_indices(self.lines, self.n, "measured line"))

    @property
    def n(self) -> int:
        return self.gates.n

    def input_state(self) -> DGaussState:
        """The input as a DGaussState; a diagonal input's is built on each call."""
        return self.state if isinstance(self.state, DGaussState) else from_diagonal(self.state)

    def input_carrier(self, stride: int) -> np.ndarray:
        """The input's M_ext in fold order (axis 2n first), a (2n+1)-square view of row stride ``stride``.

        The view's buffer is fresh and zeroed.  At stride 2n+2 it is
        (2n+2)-square, last row and column spare (0), as a held state needs.
        A smaller stride is band storage: entry (r, c) sits at r * stride +
        c, so a row owns only its entries within stride // 2 of the diagonal.
        From lambdas only the 2x2 blocks are written: ``from_diagonal``'s
        M_ext, but with +0 for the extension row's -0.
        """
        w = 2 * self.n + 1
        B = np.ndarray((w, w), buffer=np.zeros(w * stride + w + 1), strides=(8 * stride, 8))
        if isinstance(self.state, DGaussState):
            B[1:, 1:] = self.state.M
            B[1:, 0] = self.state.mu
            B[0, 1:] = -self.state.mu
        else:
            q = np.arange(1, w - 1, 2)
            B[q, q + 1] = -self.state
            B[q + 1, q] = self.state
        return B


def run(c: Circuit) -> DGaussState:
    """Fold the circuit's gates over its input's carrier; the output state, or its reduction to c.lines.

    The carrier is ``c.input_carrier``'s view, updated in place in fold order:
    a gate (rows sl, lowest row a, highest row b and Q, from
    ``unitary._gate_blocks`` at shift 1) multiplies its rows of the
    (2n+1)-square carrier B by Q, and the same rows of B^T (its columns)
    by Q again, one view each, only within a band, symmetric as B is: row
    r, and column r, may be nonzero from column lo[r] to hi(r) - 1, for lo
    nondecreasing and hi(r) = bisect_right(lo, r).  Rows a..b reach
    columns L = lo[a] to H - 1 = hi(b) - 1 alone; after the gate they start
    at L, and rows b+1..H-1 at a at most.  A lambdas input starts from its
    2x2 blocks, a held state at the full band: g gates cost O(g w) for band
    width w.  A skipped entry is a zero that the whole-row product would
    set to +0, and a computed one has the bits of Q @ Me[rows, :] or
    Me[:, rows] @ Q^T (the fold-reference tests pin both).  Gates were
    checked when their sequence was built.

    A first pass runs that bookkeeping alone: each gate's columns [L, H)
    and the final band, whose rows reach at most W columns from the
    diagonal.  The fold then runs in band storage of row stride 2W, O(n W)
    memory.  After a gate, row a reaches column H - 1 and row b > a column
    L, so H - L <= 2W: each product keeps a leading dimension of at least
    its width, so NumPy hands it to BLAS as in the dense buffer, with its
    bits.  State output, and a band whose 2W reaches 2n+1, take the dense
    buffer (stride 2n+2).

    The output leaves through ``carrier_state``.  With no lines, copying
    the extension row and column into the spare ones makes the buffer's
    trailing (2n+1)-square block the natural carrier.  With ``c.lines`` =
    K, the rows and columns of K's Majorana axes and axis 2n are gathered
    from the fold-order view, with +0 outside the band (where a band view
    aliases other rows): the output reduced to K, line K[j] renumbered j,
    with the full output's bits.
    """
    w = 2 * c.n + 1
    slices, lows, highs, Qs = _gate_blocks(c.gates, 1)
    lo = [0] * w if isinstance(c.state, DGaussState) else [0] + [r - 1 + r % 2 for r in range(1, w)]
    Ls, Hs = [], []  # each gate's columns L..H-1, as ints: nothing held per gate that the collector tracks
    for a, b in zip(lows, highs):
        L, H = lo[a], bisect_right(lo, b)
        Ls.append(L)
        Hs.append(H)
        lo[a:b + 1] = [L] * (b + 1 - a)
        s = bisect_right(lo, a, b + 1, H)  # rows s..H-1 started past column a
        lo[s:H] = [a] * (H - s)
    W = max(map(operator.sub, range(w), lo))  # the band is symmetric: no row reaches further right
    B = c.input_carrier(w + 1 if c.lines is None or 2 * W >= w else 2 * W)
    BT = B.T
    for sl, L, H, Q in zip(slices, Ls, Hs, Qs):
        for V in B[sl, L:H], BT[sl, L:H]:  # the gate's rows, then its columns
            V[...] = Q @ V
    if c.lines is None:
        X = B.base.reshape(w + 1, w + 1)
        X[-1, :] = X[0, :]
        X[:, -1] = X[:, 0]
        Me = X[1:, 1:]
    else:  # K's Majorana axes and axis 2n, at their fold-order rows
        ext = np.array([a + 1 for a in _measured_axes(c.lines)] + [0])
        Me = B[np.ix_(ext, ext)]
        Me[np.abs(ext[:, None] - ext) > W] = 0.0  # outside the band
    return carrier_state(Me)


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

    The 2|K| x 2|K| compression passes ``_refuse_inadmissible`` first.  Shots
    whose bits so far agree share one conditioned compression (a node).
    Line j reads p0 = (1 - S[0, 1]) / 2 of each shot's node, draws bit 0
    when the shot's uniform is below p0, and conditions each distinct
    child node once by a rank-2 Schur update (_condition): O(|K|^2) per
    line per node, at most min(shots, 2^j) nodes.  A bit whose
    conditional probability is at round-off level is never drawn: the line
    takes the likelier bit instead.  Deterministic for a given seed (see
    the module docstring for the exact RNG contract).
    """
    K = as_indices(K, s.n, "measured line")
    k = len(K)
    shots, seed = sampling_arg("shots", shots), sampling_arg("seed", seed)
    out = np.empty((shots, k), dtype=np.uint8)
    if k == 0:
        return out
    idx = _measured_axes(K)
    S0 = _refuse_inadmissible(s.M[np.ix_(idx, idx)])
    rows = max(1, SAMPLE_CHUNK_BYTES // S0.nbytes)
    start = 0
    for u in _uniform_chunks(seed, shots, k, rows):
        S, node = S0[None], np.zeros(len(u), dtype=np.intp)
        b = out[start:start + len(u)].view(bool)
        start += len(u)
        for j in range(k):
            p0 = ((1.0 - S[:, 0, 1]) / 2)[node]
            bad = ~((p0 >= -1e-9) & (p0 <= 1 + 1e-9))  # NaN included
            if bad.any():
                raise NumericalAdmissibilityError(
                    f"conditional probability {p0[bad][0]} outside [0, 1]"
                )
            bj = u[:, j] >= p0
            # Forced branch: never condition on a (numerically) impossible bit.
            b[:, j] = np.where(np.where(bj, 1.0 - p0, p0) > PIVOT_TOL, bj, p0 < 0.5)
            if j + 1 < k:
                child, node = np.unique(2 * node + b[:, j], return_inverse=True)
                S = _condition(S[child >> 1], child & 1)
    return out
