"""Displaced Gaussian states as covariance data (M, mu).

A state is stored through the real carrier of its extended covariance
matrix: Sigma = i*M with M real antisymmetric 2n x 2n, and mean vector
mu with mu_j = Tr(gamma_j rho).  The extended carrier

    M_ext = [[M, mu], [-mu^T, 0]]        ((2n+1) x (2n+1), real)

packs both; the complex extended covariance is i*M_ext.  Sign
convention (fixed by the literal Jordan-Wigner form in the dense
oracle): a product state with <Z_q> = z_q has M[2q, 2q+1] = -z_q.

Admissibility: the canonical values of M_ext must satisfy lambda <= 1;
pure states have every nonzero canonical value equal to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .antisym import (KERNEL_TOL, WICK_PHASE, NumericalAdmissibilityError, _as_qubit_count, _as_real, _check_carrier,
                      _check_generator, as_indices, bordered, canonical_matrix, pfaffian_restricted)

ADMISSIBILITY_TOL = 1e-9
SATURATION_TOL = 1e-9

# Side of the square blocks in which carrier_state symmetrizes a carrier in place.
SYMMETRIZE_BLOCK = 256


class AdmissibilityError(ValueError, NumericalAdmissibilityError):
    """Input data does not describe a quantum state."""


class SaturationError(ValueError, NumericalAdmissibilityError):
    """Thermal parameters diverge because some modes are (nearly) pure."""

    def __init__(self, modes):
        self.modes = tuple(modes)
        super().__init__(
            f"thermal generator saturates: modes {self.modes} are pure "
            "within tolerance (arctanh diverges)"
        )


def _canonical_values(M_ext) -> list[float]:
    """Canonical values of an odd-dimensional real antisymmetric carrier, descending.

    They are the eigenvalues of the Hermitian i*M_ext above the kernel
    cut KERNEL_TOL * scale: the lambdas of ``block_diagonalize``, read
    from one ``eigvalsh`` without building its rotation.
    """
    M_ext = _check_carrier(M_ext)
    cut = KERNEL_TOL * max(1.0, float(np.abs(M_ext).max()))
    return [lam for lam in np.linalg.eigvalsh(1j * M_ext)[::-1].tolist() if lam > cut]


def validate(M_ext):
    """Check a real extended carrier for admissibility.

    Returns (valid, lambdas) where lambdas are the canonical values of
    M_ext sorted descending; valid iff all of them are at most
    1 + ADMISSIBILITY_TOL.  The matrix rank (2 * number of nonzero
    lambdas) is implied by the returned list but deliberately not
    enforced.
    """
    lambdas = _canonical_values(M_ext)
    return all(lam <= 1.0 + ADMISSIBILITY_TOL for lam in lambdas), lambdas


@dataclass(frozen=True)
class DGaussState:
    """Displaced Gaussian state (n, M, mu); immutable after construction.

    The constructor builds [[M, mu], [-mu^T, 0]], checks it once for finiteness,
    antisymmetry and admissibility, and keeps views of it, never the caller's
    arrays.  States dgsim computed or checked itself come through ``_unchecked``.
    """

    n: int
    M: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", _as_qubit_count(self.n))
        M, mu = _as_real(self.M, "covariance"), _as_real(self.mu, "covariance")
        if M.shape != (2 * self.n, 2 * self.n) or mu.shape != (2 * self.n,):
            raise ValueError("covariance dimensions do not match n")
        M_ext = bordered(M, mu)
        valid, lambdas = validate(M_ext)
        if not valid:
            raise AdmissibilityError(f"canonical values exceed 1: {[l for l in lambdas if l > 1 + ADMISSIBILITY_TOL]}")
        object.__setattr__(self, "M", M_ext[:-1, :-1])
        object.__setattr__(self, "mu", M_ext[:-1, -1])

    @property
    def M_ext(self) -> np.ndarray:
        """A fresh, writable [[M, mu], [-mu^T, 0]]."""
        return bordered(self.M, self.mu)

    @property
    def is_even(self) -> bool:
        return bool(np.abs(self.mu).max(initial=0.0) < 1e-12)

    def canonical_lambdas(self) -> list[float]:
        """Canonical values of the extended carrier, padded to n entries."""
        lambdas = _canonical_values(self.M_ext)
        return lambdas + [0.0] * (self.n - len(lambdas))


def _unchecked(n: int, M: np.ndarray, mu: np.ndarray) -> DGaussState:
    """The state on exactly the float arrays given, unchecked: for data dgsim computed or checked itself."""
    s = object.__new__(DGaussState)
    s.__dict__.update(n=n, M=M, mu=mu)
    return s


def carrier_state(E: np.ndarray) -> DGaussState:
    """The unchecked state on views of a computed (2k+1)-square carrier E, symmetrized in place.

    E becomes (E - E^T) / 2 a pair of SYMMETRIZE_BLOCK-square blocks at
    a time: one block's difference goes to a scratch block and the
    other's is written in place, so both read old values.  These are the
    bits of the whole-matrix expression, with no second carrier.
    """
    if E.shape != (len(E),) * 2 or len(E) % 2 == 0:
        raise ValueError("carrier must be square of odd dimension")
    b = SYMMETRIZE_BLOCK
    scratch = np.empty((min(b, len(E)),) * 2)
    for i in range(0, len(E), b):
        for j in range(i, len(E), b):
            X, Y = E[i:i + b, j:j + b], E[j:j + b, i:i + b]
            upper = np.subtract(X, Y.T, out=scratch[:len(X), :len(Y)])
            if j > i:
                np.divide(np.subtract(Y, X.T, out=Y), 2, out=Y)
            np.divide(upper, 2, out=X)
    return _unchecked(len(E) // 2, E[:-1, :-1], E[:-1, -1])


def diagonal_parameters(lambdas) -> np.ndarray:
    """The parameters lambda_q of ``from_diagonal`` as a checked float vector, a copy of ``lambdas``.

    Every lambda_q must lie in [-1, 1] within ADMISSIBILITY_TOL, the
    tolerance of every input form.
    """
    lams = _as_real(lambdas, "diagonal parameters").copy()
    if lams.ndim != 1:
        raise ValueError("diagonal parameters must form a vector")
    if not (np.abs(lams) <= 1.0 + ADMISSIBILITY_TOL).all():
        raise AdmissibilityError("diagonal parameters must lie in [-1, 1]")
    return lams


def from_diagonal(lambdas) -> DGaussState:
    """Diagonal product state tensor of (1 + lambda_q Z)/2.

    M[2q, 2q+1] = -lambda_q and mu = 0, the lambdas checked by
    ``diagonal_parameters``.
    """
    lams = diagonal_parameters(lambdas)
    n = len(lams)
    return _unchecked(n, canonical_matrix(-lams, 2 * n), np.zeros(2 * n))


def wick_moment(state: DGaussState, J) -> complex:
    """Moment Tr(gamma_J^dag rho) from the extended covariance.

    Even |J| = 2p: i^p * Pf(M_ext restricted to J); odd |J|: append the
    extension index 2n and multiply by -i (the alpha prefactor for odd
    moments), giving -i * i^{(|J|+1)/2} * Pf(M_ext restricted), as ``WICK_PHASE``.
    """
    J = as_indices(J, 2 * state.n, "moment index")
    Jt = J + (2 * state.n,) * (len(J) % 2)
    return complex(WICK_PHASE[len(J) & 7]) * pfaffian_restricted(state.M_ext, Jt)


def purity(state: DGaussState) -> float:
    """Tr(rho^2) = prod_j (1 + lambda_j^2)/2 over canonical values."""
    return float(np.prod([(1 + lam * lam) / 2 for lam in state.canonical_lambdas()]))


def _odd_function(G: np.ndarray, f) -> np.ndarray:
    """Apply an odd real function to a real antisymmetric matrix.

    Uses the Hermitian matrix iG: result = i * f_applied(iG), which is
    again real antisymmetric.  (A direct series in G would evaluate the
    trigonometric counterpart of f instead, since the squares of G's
    canonical blocks are negative.)  The result is a new C-contiguous
    float array: the real part of the complex product, copied out of it.
    """
    w, V = np.linalg.eigh(1j * G)
    return np.ascontiguousarray((1j * (V * f(w)) @ V.conj().T).real)


def from_thermal(h, d) -> DGaussState:
    """State e^{-H}/Tr(e^{-H}) for H = (i/2) gamma^T h gamma + d^T gamma.

    In each canonical plane of the extended generator with parameter
    beta the state carries lambda = tanh(beta); equivalently
    M_ext = i*tanh(i*G) for the extended carrier G = [[h, d], [-d^T, 0]].
    (h, d) follow the generator rule ``_check_generator`` on n = len(h) // 2 lines.
    """
    h = _as_real(h, "generator")
    G = bordered(*_check_generator(len(h) // 2 if h.ndim else 0, h, d))
    return carrier_state(_odd_function(G, np.tanh))


def to_thermal(state: DGaussState) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of from_thermal, [[h, d], [-d^T, 0]] exactly antisymmetric; SaturationError on pure modes."""
    lambdas = state.canonical_lambdas()
    saturated = [j for j, lam in enumerate(lambdas) if lam >= 1.0 - SATURATION_TOL]
    if saturated:
        raise SaturationError(saturated)
    G = _odd_function(state.M_ext, np.arctanh)
    G = (G - G.T) / 2
    m = 2 * state.n
    return G[:m, :m], G[:m, m]


def dense(state: DGaussState) -> np.ndarray:
    """Exact dense density matrix via the Wick expansion (oracle-capped)."""
    oracle._check_cap(state.n)
    return oracle.gaussian_dense(state.M_ext)
