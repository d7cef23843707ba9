"""Even embedding of displaced Gaussian data and Gaussianity tests.

The embedding channel E sends an n-qubit state to an even (n+1)-qubit
state by adjoining a |+> ancilla and conjugating with the embedding
unitary V = exp(-i pi/4 gamma_{2n+1}).  At the covariance level the
mean vector of the input reappears as covariance couplings to the new
Majorana subspaces, so displaced Gaussian data can be processed by
even-Gaussian machinery.  The test functions at the end are dense
verification protocols (exponential in n, capped by the oracle): they
decide whether a given dense state or unitary is (displaced) Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import antisym, oracle
from .state import DGaussState
from .unitary import UNITARY_TOL, DGUnitary

GAUSSIAN_TOL = 1e-7
# A dense state is pure when |Tr(rho^2) - 1| is below this.
PURITY_TOL = 1e-8
# displaced_unitary_test on n lines runs the Choi-state test on max_entangled(n + 1).
UNITARY_TEST_MAX_QUBITS = oracle.ORACLE_MAX_PAIRED - 1


@dataclass(frozen=True)
class EmbeddingResult:
    """Even covariance of the embedded state plus the (r, c) block data.

    ``sigma`` is the real antisymmetric carrier of the embedded
    (n+1)-qubit state's covariance, ``r`` and ``c`` the last-row blocks
    of the rotation that canonicalizes the input's extended carrier.
    The pair (r, c) is not unique under spectral degeneracy; only the
    embedded state itself is compared against oracles.
    """

    sigma: np.ndarray
    r: np.ndarray
    c: float

    def state(self) -> DGaussState:
        """The embedded even state; its carrier is checked for admissibility."""
        m = self.sigma.shape[0]
        return DGaussState(m // 2, self.sigma, np.zeros(m))


def _kernel_vector(M_ext: np.ndarray) -> np.ndarray:
    """Signed sub-Pfaffian vector of an odd-dimensional antisymmetric matrix.

    w_j = (-1)^j Pf(M_ext with row and column j removed); it spans the
    kernel of M_ext and its length is the product of the canonical
    block parameters, so for a pure state it is a unit vector.  With k
    the unit kernel vector (the last right-singular vector), expanding
    Pf([[M_ext, k], [-k^T, 0]]) along its last row gives w . k, so
    w = Pf([[M_ext, k], [-k^T, 0]]) * k: one O(m^3) Pfaffian, whatever
    the sign of k, and 0 when M_ext has a larger kernel.
    """
    k = np.linalg.svd(M_ext)[2][-1]
    return antisym.pfaffian(antisym.bordered(M_ext, k)) * k


def embed_covariance(s: DGaussState) -> EmbeddingResult:
    """Covariance data of the even embedding E(s).

    The embedded carrier on axes (0..2n-1, 2n, 2n+1) of the n+1 qubit
    register is

        [[ M,    -r, mu],
         [ r^T,   0,  c],
         [-mu^T, -c,  0]]

    where (-r, -c) is the signed sub-Pfaffian kernel vector of the
    extended carrier of the input, times the parity phase
    (-1)^(n+1) of the Jordan-Wigner string.  The couplings to axis 2n
    are the input's top odd moments <gamma_a P> and c is the parity
    <P>.  The vector is Pf([[M_ext, k], [-k^T, 0]]) * k for the unit
    kernel vector k of M_ext, so the embedding costs O(n^3).  Its
    length is the product of the canonical lambdas, so for pure inputs
    (r, c) is the unit kernel row of the canonicalizing rotation.
    """
    n = s.n
    m = 2 * n
    w = (-1) ** (n + 1) * _kernel_vector(s.M_ext)
    r = -w[:m]
    c = -float(w[m])
    sigma = antisym.bordered(antisym.bordered(s.M, -r), np.append(s.mu, c))
    return EmbeddingResult(sigma=sigma, r=r, c=c)


def embed_state(s: DGaussState) -> DGaussState:
    """Even displaced-Gaussian state of the embedding E(s) on n+1 qubits."""
    return embed_covariance(s).state()


def embed_unitary(U: DGUnitary) -> DGUnitary:
    """Even Gaussian unitary on n+1 qubits compatible with the embedding.

    The displacement of the generator becomes a quadratic coupling to
    the last Majorana subspace:

        h~ = [[ h,   0, -d],
              [ 0,   0,  0],
              [ d^T, 0,  0]]

    and E(U rho U+) = U~ E(rho) U~+.  A unitary held as a rotation only
    is read through its generator (principal logarithm).
    """
    m = 2 * U.n
    h, d = U.generator()
    h = antisym.bordered(antisym.bordered(h, np.zeros(m)), np.append(-d, 0.0))
    return DGUnitary.from_generator(U.n + 1, h, np.zeros(m + 2))


def embed_dense(rho: np.ndarray) -> np.ndarray:
    """Dense even embedding E(rho) = V (rho x |+><+|) V^dagger."""
    n = oracle._operator_lines(np.asarray(rho))
    rho = oracle.check_state(rho)
    V = oracle.embed_V(n)
    plus = np.full((2, 2), 0.5, dtype=complex)
    return V @ np.kron(rho, plus) @ V.conj().T


def gaussian_state_test(psi: np.ndarray, tol: float = GAUSSIAN_TOL):
    """Convolution overlap test for even pure states.

    Returns ``(overlap, verdict)`` with overlap = Tr[psi (psi # psi)]
    where # is the fermionic self-convolution; the state is Gaussian
    exactly when the overlap is 1.  The scalar convention (trace
    against the density operator) is fixed by requiring the value 1 on
    Gaussian inputs.
    """
    psi = oracle.check_state(psi)
    if abs(float(np.real(np.trace(psi @ psi))) - 1.0) > PURITY_TOL:
        raise ValueError("the convolution overlap test needs a pure state")
    conv = oracle.fermionic_convolution(psi, psi)
    overlap = float(np.real(np.trace(psi @ conv)))
    return overlap, overlap >= 1.0 - tol


def gaussian_mixed_test(rho: np.ndarray, tol: float = GAUSSIAN_TOL):
    """Wick-consistency Gaussianity check; works for mixed even states."""
    return oracle.is_gaussian(rho, tol=tol)


def gaussian_unitary_test(U: np.ndarray, tol: float = GAUSSIAN_TOL):
    """Choi-state Gaussianity test for even unitaries.

    Conjugates the first register of the fermionic maximally entangled
    state and applies the Wick-consistency check.  Returns
    ``(verdict, deviation)``.
    """
    U = np.asarray(U, dtype=complex)
    n = oracle._operator_lines(U)
    if np.max(np.abs(U @ U.conj().T - np.eye(len(U)))) > UNITARY_TOL:
        raise ValueError("input is not unitary")
    rho_E = oracle.max_entangled(n)
    W = np.kron(U, np.eye(len(U), dtype=complex))
    return gaussian_mixed_test(W @ rho_E @ W.conj().T, tol=tol)


def displaced_state_test(rho: np.ndarray, tol: float = GAUSSIAN_TOL):
    """Whether a dense state is a displaced Gaussian state.

    For pure inputs the state is embedded evenly and the
    Wick-consistency check runs on the embedding.  For mixed inputs
    the embedding route is unsound -- E(rho) is non-Gaussian for every
    mixed rho, because adjoining the transversely displaced |+>
    ancilla behind a parity-mixed register breaks Wick factorization
    of the top odd moment (it picks up the squared Pfaffian of the
    covariance) -- so the check runs on the state directly.  Returns
    ``(verdict, deviation)``.
    """
    rho = oracle.check_state(rho)
    if abs(float(np.real(np.trace(rho @ rho))) - 1.0) < PURITY_TOL:
        return gaussian_mixed_test(embed_dense(rho), tol=tol)
    return gaussian_mixed_test(rho, tol=tol)


def displaced_unitary_test(U: np.ndarray, tol: float = GAUSSIAN_TOL):
    """Whether a dense unitary is a displaced Gaussian unitary.

    Conjugates U (x) I with the embedding unitary to obtain an even
    candidate and runs the Choi-state test on it.  Returns
    ``(verdict, deviation)``.  U on more than UNITARY_TEST_MAX_QUBITS
    lines raises OracleCapError before any dense work.
    """
    U = np.asarray(U, dtype=complex)
    n = oracle._operator_lines(U)
    oracle._check_cap(n, UNITARY_TEST_MAX_QUBITS)
    V = oracle.embed_V(n)
    W = V @ np.kron(U, np.eye(2, dtype=complex)) @ V.conj().T
    return gaussian_unitary_test(W, tol=tol)
