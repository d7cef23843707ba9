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

from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .antisym import (KERNEL_TOL, NumericalAdmissibilityError, as_indices, bordered, canonical_matrix,
                      check_antisymmetric, pfaffian_restricted)

ADMISSIBILITY_TOL = 1e-9
SATURATION_TOL = 1e-9


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
    M_ext = check_antisymmetric(np.asarray(M_ext, dtype=float))
    if M_ext.shape[0] % 2 == 0:
        raise ValueError("extended carrier must have odd dimension")
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

    With ``check`` (the default) the data is checked once for
    finiteness, antisymmetry and admissibility.  Internal constructors
    whose carrier is antisymmetric by construction pass ``check=False``,
    which checks the shapes only.
    """

    n: int
    M: np.ndarray
    mu: np.ndarray
    check: bool = field(default=True, compare=False)

    def __post_init__(self):
        M = np.asarray(self.M, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        if M.shape != (2 * self.n, 2 * self.n) or mu.shape != (2 * self.n,):
            raise ValueError("covariance dimensions do not match n")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "mu", mu)
        if self.check:
            valid, lambdas = validate(self.M_ext)
            if not valid:
                raise AdmissibilityError(
                    f"canonical values exceed 1: {[l for l in lambdas if l > 1 + ADMISSIBILITY_TOL]}"
                )

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


def from_diagonal(lambdas) -> DGaussState:
    """Diagonal product state tensor of (1 + lambda_q Z)/2.

    M[2q, 2q+1] = -lambda_q and mu = 0; every lambda_q must lie in [-1, 1].
    """
    lams = np.asarray(lambdas, dtype=float)
    if not (np.abs(lams) <= 1.0 + 1e-12).all():
        raise AdmissibilityError("diagonal parameters must lie in [-1, 1]")
    n = len(lams)
    return DGaussState(n, canonical_matrix(-lams, 2 * n), np.zeros(2 * n), check=False)


def wick_moment(state: DGaussState, J) -> complex:
    """Moment Tr(gamma_J^dag rho) from the extended covariance.

    Even |J| = 2p: i^p * Pf(M_ext restricted to J); odd |J|: append the
    extension index 2n and multiply by -i (the alpha prefactor for odd
    moments), giving -i * i^{(|J|+1)/2} * Pf(M_ext restricted).
    """
    J = as_indices(J, 2 * state.n, "moment index")
    if len(J) % 2 == 0:
        return (1j) ** (len(J) // 2) * pfaffian_restricted(state.M_ext, J)
    Jt = J + (2 * state.n,)
    return -1j * (1j) ** (len(Jt) // 2) * pfaffian_restricted(state.M_ext, Jt)


def purity(state: DGaussState) -> float:
    """Tr(rho^2) = prod_j (1 + lambda_j^2)/2 over canonical values."""
    return float(np.prod([(1 + lam * lam) / 2 for lam in state.canonical_lambdas()]))


def _odd_function(G: np.ndarray, f) -> np.ndarray:
    """Apply an odd real function to a real antisymmetric matrix.

    Uses the Hermitian matrix iG: result = i * f_applied(iG), which is
    again real antisymmetric.  (A direct series in G would evaluate the
    trigonometric counterpart of f instead, since the squares of G's
    canonical blocks are negative.)
    """
    w, V = np.linalg.eigh(1j * G)
    out = 1j * (V * f(w)) @ V.conj().T
    return np.real(out)


def from_thermal(h, d) -> DGaussState:
    """State e^{-H}/Tr(e^{-H}) for H = (i/2) gamma^T h gamma + d^T gamma.

    In each canonical plane of the extended generator with parameter
    beta the state carries lambda = tanh(beta); equivalently
    M_ext = i*tanh(i*G) for the extended carrier G = [[h, d], [-d^T, 0]].
    """
    G = bordered(check_antisymmetric(np.asarray(h, dtype=float)), d)
    M_ext = _odd_function(G, np.tanh)
    m = G.shape[0] - 1
    return DGaussState(m // 2, M_ext[:m, :m], M_ext[:m, m], check=False)


def to_thermal(state: DGaussState) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of from_thermal; raises SaturationError on pure modes."""
    lambdas = state.canonical_lambdas()
    saturated = [j for j, lam in enumerate(lambdas) if lam >= 1.0 - SATURATION_TOL]
    if saturated:
        raise SaturationError(saturated)
    G = _odd_function(state.M_ext, np.arctanh)
    m = 2 * state.n
    return G[:m, :m], G[:m, m]


def dense(state: DGaussState) -> np.ndarray:
    """Exact dense density matrix via the Wick expansion (oracle-capped)."""
    oracle._check_cap(state.n)
    return oracle.gaussian_dense(state.M_ext)
