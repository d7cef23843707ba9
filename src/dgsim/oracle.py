"""Exact dense reference implementation at small qubit counts.

Everything here is brute force on 2^n x 2^n complex matrices: Majorana
operators, Majorana moments (a plain array of length 4^n indexed by the
bitmask of J), general quadratic-Hamiltonian exponentials
(``exp_quadratic``, for the convolution unitary and arbitrary
generators), the embedding unitary, the adjacent fermionic swap, Born
probabilities, and a moment-based Gaussianity check.  It exists to
validate the polynomial-time covariance-matrix paths, so sizes are
hard-capped (n <= 6 for single-register operators, n <= 4 for the
2n-qubit convolution/Choi constructions).

Exact operators are built by index arithmetic, with no Kronecker or
dense matrix product.  A Pauli string, and so every Majorana monomial,
is a signed permutation of the basis states (``monomial_permutation``)
whose one dense form ``_dense_monomial`` scatters; so is the adjacent
fermionic swap (``fswap_permutation``).  The Pauli products come in
closed form, the parity Z...Z from the index bits (``is_even``).  The
embedding unitary is cos(pi/4) I - i sin(pi/4) gamma_{2n+1}, and a gate
of the alphabet is c I + s D with D such a permutation (``unitary.conjugate_dense``).

The moment kernels are whole-array transforms, not loops over the 4^n
Majorana bitmasks: the Pauli transform takes one step per line, a
monomial table gives every gamma_J's Pauli string and phase in 2n
steps, and the Pfaffians of all restrictions come one popcount at a
time.  Each costs O(n 4^n) arithmetic (O(2^m m) for the Pfaffians).
They keep the operation order of the per-mask loops they replaced, so
the values are the same (a golden fixture in the test suite pins
them); the per-mask definitions ``monomial_string`` and
``pfaffian_restricted`` remain as independent cross-checks.

Index conventions are 0-based throughout: Majorana operator 2q acts as
X on qubit line q behind a Z string, operator 2q+1 acts as Y.  With
this convention i*gamma_0*gamma_1 = -Z on line 0, so a state with
<Z_q> = z carries covariance entry M[2q, 2q+1] = -z.
"""

from __future__ import annotations

import functools

import numpy as np

from .antisym import (WICK_PHASE, NonFiniteError, _check_carrier, _check_generator, _popcounts, _read_only,
                      _scipy_linalg, as_bits, as_index, as_indices, bordered, pfaffian_all_restrictions)

ORACLE_MAX_QUBITS = 6
ORACLE_MAX_PAIRED = 4
# Relative deviation from parity symmetry that still counts as even.
PARITY_TOL = 1e-10
# Hermiticity and unit-trace tolerance of a dense state.
STATE_TOL = 1e-10


class OracleCapError(ValueError):
    """Requested size exceeds the dense-oracle hard limit."""


def _check_cap(n, limit: int = ORACLE_MAX_QUBITS) -> int:
    """``n`` as an int (``as_index``) in [1, limit]; else ValueError, or OracleCapError past the limit.

    Every builder sizes its work, and its held tables, by the returned int,
    so 2.0 or True is refused on every call and never meets a table keyed by 2.
    """
    n = as_index(n, "qubit count")
    if not 1 <= n:
        raise ValueError("qubit count must be positive")
    if n > limit:
        raise OracleCapError(f"dense oracle capped at {limit} qubits, got {n}")
    return n


def _operator_lines(A) -> int:
    """n of a 2^n x 2^n operator A, the one size rule of the dense entry points; else ValueError."""
    n = max(A.shape, default=0).bit_length() - 1
    if A.shape != (2**n, 2**n):
        raise ValueError("operator dimension is not a power of two")
    return n


PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Single-qubit Pauli products: sigma_a sigma_b = _MUL_PHASE[a][b] * sigma_{_MUL_CODE[a][b]}, in closed form: 1 if a
# factor is I or both are equal, else +i in the cyclic order X -> Y -> Z, -i (0 - 1j, a +0 real part) against it.
_a, _b = np.ogrid[:4, :4]
_MUL_CODE = _a ^ _b
_MUL_PHASE = np.where(_a * _b * (_a - _b) == 0, 1, np.where((_b - _a) % 3 == 1, 1j, 0 - 1j))


def _majorana_codes(n: int, a: int) -> tuple[int, ...]:
    """Pauli-string codes of Majorana operator ``a`` on ``n`` lines; ``a`` is a checked int in [0, 2n)."""
    q = a // 2
    return (3,) * q + (1 if a % 2 == 0 else 2,) + (0,) * (n - q - 1)


def majorana(n: int, a: int) -> np.ndarray:
    """Dense Majorana operator: Z-string, then X (even a) or Y (odd a)."""
    n = _check_cap(n, 2 * ORACLE_MAX_PAIRED)
    return _dense_monomial(n, as_indices((a,), 2 * n, "Majorana index"))


def monomial_string(n: int, J) -> tuple[complex, tuple[int, ...]]:
    """Ordered Majorana product gamma_J as (phase, Pauli-string codes); J follows ``as_indices``."""
    codes = [0] * n
    phase = 1.0 + 0j
    for a in as_indices(J, 2 * n, "monomial index"):
        for q, c in enumerate(_majorana_codes(n, a)):
            if c:
                phase *= _MUL_PHASE[codes[q], c]
                codes[q] = int(_MUL_CODE[codes[q], c])
    return phase, tuple(codes)


def monomial_permutation(n: int, J) -> tuple[np.ndarray, np.ndarray]:
    """Ordered Majorana product gamma_J as a signed permutation (perm, d).

    gamma_J[y, perm[y]] = d[y], so gamma_J @ A is ``d[:, None] * A[perm]``.
    gamma_J is a phase times the Pauli string of ``monomial_string``,
    whose X and Y flip their line's bit, Y and Z contribute (-1)^bit of
    the column, and each Y a factor i: P|x> = i^#Y (-1)^|x & zmask|
    |x ^ xmask>.  Line 0 is the most significant bit of a basis index.
    """
    n = _check_cap(n, 2 * ORACLE_MAX_PAIRED)
    phase, codes = monomial_string(n, J)
    codes = np.array(codes)
    shift = np.arange(n - 1, -1, -1)
    perm = np.arange(1 << n) ^ int((1 << shift[(codes == 1) | (codes == 2)]).sum())
    odd = ((perm[:, None] >> shift[codes >= 2]) & 1).sum(axis=1) & 1
    return perm, phase * (1, 1j, -1, -1j)[int((codes == 2).sum()) % 4] * (1.0 - 2.0 * odd)


def _dense_monomial(n: int, J) -> np.ndarray:
    """gamma_J as a dense 2^n-square matrix, scattered from its signed permutation (``monomial_permutation``)."""
    perm, d = monomial_permutation(n, J)
    out = np.zeros((len(perm), len(perm)), dtype=complex)
    out[np.arange(len(perm)), perm] = d
    return out


def pauli_tensor(A: np.ndarray) -> np.ndarray:
    """Coefficients c with A = sum_P c[P] * P over Pauli strings P.

    Returns an array of shape (4,)*n indexed by per-line Pauli codes.
    One array transform per line, line 0 first: the 2x2 blocks
    (b00, b01, b10, b11) of that line become the four coefficients
    ((b00+b11)/2, (b01+b10)/2, i(b01-b10)/2, (b00-b11)/2).  n whole-array
    steps, O(n 4^n) arithmetic.
    """
    n = _operator_lines(A)
    X = A.reshape(1, 1 << n, 1 << n)
    for q in range(n):
        h = 1 << (n - q - 1)
        X = X.reshape(-1, 2, h, 2, h)
        b00, b01, b10, b11 = X[:, 0, :, 0], X[:, 0, :, 1], X[:, 1, :, 0], X[:, 1, :, 1]
        X = np.stack(
            (
                (b00 + b11) / 2,          # I
                (b01 + b10) / 2,          # X
                1j * (b01 - b10) / 2,     # Y
                (b00 - b11) / 2,          # Z
            ),
            axis=1,
        ).reshape(-1, h, h)
    return X.reshape((4,) * n)


def from_pauli_tensor(C: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pauli_tensor`: A = sum_P C[P] * P.

    One array transform per line, last line first: the coefficients
    (c_I, c_X, c_Y, c_Z) become the 2x2 blocks
    ((c_I+c_Z, c_X-i c_Y), (c_X+i c_Y, c_I-c_Z)).  n steps, O(n 4^n).
    """
    n = C.ndim
    X = C.reshape(-1, 1, 1)
    for q in range(n - 1, -1, -1):
        h = 1 << (n - q - 1)
        X = X.reshape(-1, 4, h, h)
        cI, cX, cY, cZ = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
        out = np.empty((X.shape[0], 2, h, 2, h), dtype=complex)
        out[:, 0, :, 0] = cI + cZ
        out[:, 0, :, 1] = cX - 1j * cY
        out[:, 1, :, 0] = cX + 1j * cY
        out[:, 1, :, 1] = cI - cZ
        X = out.reshape(-1, 2 * h, 2 * h)
    return X.reshape(1 << n, 1 << n)


@functools.lru_cache(maxsize=2 * ORACLE_MAX_PAIRED)
def _monomial_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli string and phase of gamma_J for every bitmask J over 2n axes.

    Returns ``(index, phase)`` with gamma_J = phase[J] * P, P the Pauli
    string whose per-line codes, read as base-4 digits with line 0 most
    significant, give index[J].  Built in 2n array steps: the masks with
    top bit a are those below 2^a times gamma_a on the right.  Held per
    process for the last 8 sizes asked, read-only: 24 * 4^n bytes each.
    """
    size = 1 << (2 * n)
    codes = np.zeros((size, n), dtype=np.uint8)
    phase = np.ones(size, dtype=complex)
    for a in range(2 * n):
        lo, hi = 1 << a, 2 << a
        codes[lo:hi] = codes[:lo]
        phase[lo:hi] = phase[:lo]
        cs, ph = codes[lo:hi], phase[lo:hi]
        for q, c in enumerate(_majorana_codes(n, a)):
            if c:
                ph *= _MUL_PHASE[cs[:, q], c]
                cs[:, q] = _MUL_CODE[cs[:, q], c]
    return _read_only(codes @ 4 ** np.arange(n - 1, -1, -1)), _read_only(phase)


def moments(A: np.ndarray) -> np.ndarray:
    """All Majorana moments A_J = Tr(gamma_J^dag A) of a dense n-line operator.

    Returns a complex array of length 4^n indexed by the bitmask of J
    over the 2n Majorana indices.  A_J = conj(phase_J) * 2^n * c_P for
    gamma_J = phase_J * P: one Pauli transform and one gather through
    the monomial table, O(n 4^n).
    """
    n = _operator_lines(A)
    C = pauli_tensor(A).reshape(-1)
    index, phase = _monomial_table(n)
    values = np.conj(phase) * (1 << n) * C[index]
    values[0] = np.trace(A)
    return values


def wick_moment_array(M_ext: np.ndarray) -> np.ndarray:
    """Moments of the displaced Gaussian with real extended carrier M_ext.

    ``M_ext`` is (2n+1)x(2n+1) real antisymmetric holding the covariance
    block M and mean column mu (extended covariance = i * M_ext).
    Returns the length-4^n moment array in the layout of ``moments``: an even
    |J| reads i^{|J|/2} Pf(M_J), an odd |J| reads -i * i^{(|J|+1)/2}
    Pf(M_{J + mean axis}), the phase read from ``WICK_PHASE``.
    """
    M_ext = _check_carrier(M_ext)
    nmaj = M_ext.shape[0] - 1
    pf = pfaffian_all_restrictions(M_ext)
    size = _popcounts(nmaj)
    return WICK_PHASE[size & 7] * pf[np.arange(1 << nmaj) | (size & 1).astype(np.int64) << nmaj]


def gaussian_dense(M_ext: np.ndarray) -> np.ndarray:
    """Dense displaced Gaussian state from its real extended carrier.

    Assembles rho = 2^{-n} sum_J rho_J gamma_J through the Pauli
    coefficient tensor: the Wick moments are scattered to their Pauli
    strings by the monomial table and transformed back once, O(n 4^n)
    instead of summing dense monomials.
    """
    nmaj = M_ext.shape[0] - 1
    n = nmaj // 2
    _check_cap(n, 2 * ORACLE_MAX_PAIRED)
    vals = wick_moment_array(M_ext)
    index, phase = _monomial_table(n)
    C = np.zeros(1 << (2 * n), dtype=complex)
    C[index] = vals * phase / (1 << n)
    return from_pauli_tensor(C.reshape((4,) * n))


def covariance_from_dense(A: np.ndarray) -> np.ndarray:
    """Real extended carrier (M and mu) read off a dense state's moments."""
    return _carrier_from_moments(moments(A))


def _carrier_from_moments(values: np.ndarray) -> np.ndarray:
    """The carrier of a moment array: mu_j = Re rho_{(j)} and, for j < k, M_jk = Im rho_{(j,k)}."""
    bits = 1 << np.arange(len(values).bit_length() - 1)
    upper = np.triu(values[bits[:, None] | bits].imag, 1)
    return bordered(upper - upper.T, values[bits].real)


def is_gaussian(A: np.ndarray, tol: float = 1e-7) -> tuple[bool, float]:
    """Moment-based Gaussianity check for a dense state.

    Declares A (displaced) Gaussian iff every Majorana moment matches
    the Wick reconstruction from A's own first and second moments.
    Returns (verdict, max deviation).
    """
    values = moments(A)
    dev = float(np.abs(values - wick_moment_array(_carrier_from_moments(values))).max())
    return dev <= tol, dev


def exp_quadratic(n: int, h, d) -> np.ndarray:
    """Dense unitary exp(H), H = 1/2 gamma^T h gamma + i d^T gamma summed term by term from ``_dense_monomial``."""
    n = _check_cap(n, 2 * ORACLE_MAX_PAIRED)
    h, d = _check_generator(n, h, d)
    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for j in range(2 * n):
        if d[j]:
            H += 1j * d[j] * _dense_monomial(n, (j,))
        for k in range(j + 1, 2 * n):
            if h[j, k]:
                H += h[j, k] * _dense_monomial(n, (j, k))
    return _scipy_linalg().expm(H)


def conv_unitary(n: int) -> np.ndarray:
    """Convolution (beamsplitter) unitary W on 2n lines.

    W conjugates each Majorana pair (gamma_a, gamma_{2n+a}) by a 45-degree
    plane rotation, i.e. gamma_a -> (gamma_a - gamma_{2n+a})/sqrt(2), the
    50/50 beamsplitter that underlies the convolution-based Gaussianity
    test.  Since conjugation by exp(theta g_j g_k) rotates the plane by
    angle 2*theta, the generator coefficient is pi/8 per pair.  (With a
    pi/4 coefficient the conjugation is a full 90-degree transfer, the
    convolution degenerates to a register swap, and the state test
    accepts everything; that reading is rejected by the dense
    counterexamples in the test suite.)
    """
    n = _check_cap(n, ORACLE_MAX_PAIRED)
    h = np.zeros((4 * n, 4 * n))
    for a in range(2 * n):
        h[a, 2 * n + a] = np.pi / 8
        h[2 * n + a, a] = -np.pi / 8
    return exp_quadratic(2 * n, h, np.zeros(4 * n))


def is_even(A: np.ndarray) -> bool:
    """True iff A commutes with the parity Z...Z, diagonal (-1)^popcount(y); a NaN or an infinity is never even."""
    par = 1.0 - 2.0 * (_popcounts(_operator_lines(A)) & 1)
    dev = np.abs(par[:, None] * A * par - A).max()
    return bool(np.isfinite(dev) and dev <= PARITY_TOL * max(1.0, np.abs(A).max()))


def check_state(A: np.ndarray) -> np.ndarray:
    """Validate finiteness (else NonFiniteError), Hermiticity, unit trace, and positive semidefiniteness."""
    A = np.asarray(A, dtype=complex)
    if not np.isfinite(A).all():
        raise NonFiniteError("state has non-finite entries")
    if np.abs(A - A.conj().T).max() > STATE_TOL:
        raise ValueError("state is not Hermitian")
    if abs(np.trace(A) - 1.0) > STATE_TOL:
        raise ValueError("state trace is not 1")
    if np.linalg.eigvalsh(A).min() < -1e-9:
        raise ValueError("state has a negative eigenvalue")
    return A


def partial_trace_second(A: np.ndarray, n_keep: int) -> np.ndarray:
    """Trace out all lines after the first ``n_keep``."""
    dim = A.shape[0]
    dk = 1 << n_keep
    dt = dim // dk
    return np.einsum("ikjk->ij", A.reshape(dk, dt, dk, dt))


def fermionic_convolution(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Even-state convolution Tr_2[W (rho tensor sigma) W^dag]."""
    n = _operator_lines(rho)
    _check_cap(n, ORACLE_MAX_PAIRED)
    if rho.shape != sigma.shape:
        raise ValueError("convolution inputs must have equal dimension")
    for name, op in (("rho", rho), ("sigma", sigma)):
        if not is_even(op):
            raise ValueError(f"{name} is not an even operator")
    W = conv_unitary(n)
    joint = W @ np.kron(rho, sigma) @ W.conj().T
    return partial_trace_second(joint, n)


def fswap_permutation(n: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """Fermionic swap of adjacent lines (a, a+1) as a signed permutation (perm, d).

    The swap is the exponential of the four-term quadratic generator
    (pi/4)(g_p g_s - g_q g_r - g_p g_q - g_r g_s) over the Majorana
    quadruple (p,q,r,s) = (2a, 2a+1, 2a+2, 2a+3).  In closed form it
    exchanges the two lines' bits, with -1 on |11>, times the global
    phase -i: D[y, perm[y]] = d[y] as in ``monomial_permutation``.
    """
    n = _check_cap(n, 2 * ORACLE_MAX_PAIRED)
    a = as_index(a, "fswap line")
    if not 0 <= a < n - 1:
        raise ValueError("need 0 <= a < n - 1")
    y = np.arange(1 << n)
    hi, lo = (y >> (n - 1 - a)) & 1, (y >> (n - 2 - a)) & 1
    perm = y ^ ((hi ^ lo) * (3 << (n - 2 - a)))
    return perm, np.where(hi & lo, 1j, -1j)


def embed_V(n: int) -> np.ndarray:
    """Embedding unitary exp(-i (pi/4) gamma_{2n+1}) on n+1 lines (0-based index).

    In closed form, cos(pi/4) I - i sin(pi/4) gamma_{2n+1}, since
    gamma_{2n+1} squares to I.  The entries equal those of the matrix
    exponential bit for bit at every size the cap allows.  Built once
    per process for each n and shared: the returned array is read-only.
    """
    n = as_index(n, "qubit count")
    _check_cap(n + 1, 2 * ORACLE_MAX_PAIRED)
    return _embed_V(n)


@functools.lru_cache(maxsize=2 * ORACLE_MAX_PAIRED)
def _embed_V(n: int) -> np.ndarray:
    """``embed_V(n)`` for a checked n, held for every n the cap allows (1 MiB at n = 7)."""
    return _read_only(np.cos(np.pi / 4) * np.eye(2 << n) - 1j * np.sin(np.pi / 4) * majorana(n + 1, 2 * n + 1))


def max_entangled(n: int) -> np.ndarray:
    """Dense fermionic maximally entangled state on 2n lines.

    Pure even Gaussian state whose covariance pairs Majorana subspace a
    with subspace 2n+a; assembled from that covariance through the Wick
    expansion.  The coupling sign is pinned by positivity of the dense
    matrix (the opposite sign gives an operator with negative
    eigenvalues) and by the Choi-state Gaussianity test for the
    identity unitary.  Built once per process for each n and shared:
    the returned array is read-only.
    """
    return _max_entangled(_check_cap(n, ORACLE_MAX_PAIRED))


@functools.lru_cache(maxsize=ORACLE_MAX_PAIRED)
def _max_entangled(n: int) -> np.ndarray:
    """``max_entangled(n)`` for a checked n, held for every n the cap allows (1 MiB at n = 4)."""
    a = np.arange(2 * n)
    M = np.zeros((4 * n, 4 * n))
    M[a, 2 * n + a] = -1.0
    M[2 * n + a, a] = 1.0
    return _read_only(gaussian_dense(bordered(M, np.zeros(4 * n))))


def born_probability(rho: np.ndarray, K, x) -> float:
    """Probability of outcome bits x on lines K, computed densely."""
    n = _operator_lines(rho)
    K = as_indices(K, n, "measured line")
    x = as_bits(x, len(K))
    diag = np.ones(1 << n)
    for line, bit in zip(K, x):
        z = (np.arange(1 << n) >> (n - 1 - line)) & 1
        diag *= (z == bit)
    return float(np.real(np.sum(diag * np.diag(rho))))
