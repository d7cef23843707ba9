"""Displaced Gaussian unitaries, their SO(2n+1) rotations, and the compiler.

A displaced Gaussian unitary U = exp(1/2 gamma^T h gamma + i d^T gamma)
acts on Majorana generators by conjugation as the special orthogonal
rotation R = exp(lie_embed(h, d)) of the extended (2n+1)-dimensional
index space, where the last axis carries the displacement.  All index
conventions are 0-based; the extension axis is index 2n.

Gate alphabet (angle theta always names the induced rotation angle, so
the generator coefficient is theta/2 because conjugation by
exp(theta/2 g_j g_k) rotates the (j,k) plane by theta):

- ``matchgate``: plane rotation on Majorana axes (j, k) confined to a
  window {4m..4m+3} or {4m+2..4m+5}; dense exp((theta/2) g_j g_k).
- ``line1``: plane rotation within axes {0, 1, 2n}; axes (j, 2n) are
  displacements, dense exp(-i (theta/2) g_j).
- ``fswap``: fermionic swap of adjacent qubit lines (a, a+1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.linalg

from . import oracle
from .antisym import (
    NumericalAdmissibilityError,
    PlaneRotation,
    bordered,
    check_antisymmetric,
    check_rotation,
    expm_antisym,
    plane_decompose,
    plane_rotation_matrix,
)
from .state import DGaussState


class LogBranchError(RuntimeError):
    """The matrix logarithm of a rotation sits on the branch cut."""


def lie_embed(h, d) -> np.ndarray:
    """Extended antisymmetric generator 2*[[h, -d], [d^T, 0]].

    The exponential of this matrix is the rotation effected by
    exp(1/2 gamma^T h gamma + i d^T gamma): quadratic terms g_j g_k map
    to plane generators 2 s_jk, linear terms couple to the extension
    axis.
    """
    h = check_antisymmetric(np.asarray(h, dtype=float))
    return bordered(2 * h, -2 * np.asarray(d, dtype=float))


@dataclass(frozen=True)
class DGUnitary:
    """Displaced Gaussian unitary held as generator (h, d), rotation R, or both."""

    n: int
    h: np.ndarray | None = None
    d: np.ndarray | None = None
    R: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.h is None and self.R is None:
            raise ValueError("need a generator or a rotation")
        if self.h is not None:
            h = check_antisymmetric(np.asarray(self.h, dtype=float))
            d = np.zeros(2 * self.n) if self.d is None else np.asarray(self.d, dtype=float)
            if h.shape != (2 * self.n, 2 * self.n) or d.shape != (2 * self.n,):
                raise ValueError("generator dimensions do not match n")
            object.__setattr__(self, "h", h)
            object.__setattr__(self, "d", d)
        if self.R is not None:
            R = check_rotation(self.R)
            if R.shape != (2 * self.n + 1, 2 * self.n + 1):
                raise ValueError("rotation dimension does not match n")
            object.__setattr__(self, "R", R)

    @classmethod
    def from_generator(cls, n: int, h, d=None) -> "DGUnitary":
        return cls(n, h=h, d=d)

    @classmethod
    def from_rotation(cls, n: int, R) -> "DGUnitary":
        return cls(n, R=R)

    @classmethod
    def identity(cls, n: int) -> "DGUnitary":
        return cls(n, h=np.zeros((2 * n, 2 * n)), d=np.zeros(2 * n))

    def rotation(self) -> np.ndarray:
        if self.R is None:
            R = expm_antisym(lie_embed(self.h, self.d))
            if not np.isfinite(R).all():
                raise NumericalAdmissibilityError(
                    "the rotation exp(lie_embed(h, d)) is not finite: the generator overflows"
                )
            object.__setattr__(self, "R", R)
        return self.R

    def generator(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, d) with R = exp(lie_embed(h, d)), principal log branch."""
        if self.h is not None:
            return self.h, self.d
        R = self.rotation()
        w = np.linalg.eigvals(R)
        if np.any(np.abs(w + 1.0) < 1e-9):
            raise LogBranchError(
                "rotation has eigenvalue -1; the principal matrix logarithm "
                "is ambiguous (the rotation form remains valid)"
            )
        G = np.real(scipy.linalg.logm(R))
        G = (G - G.T) / 2
        m = 2 * self.n
        return G[:m, :m] / 2, G[m, :m] / 2

    def dense(self) -> np.ndarray:
        h, d = self.generator()
        return oracle.exp_quadratic(self.n, h, d)


def compose(U1: DGUnitary, U2: DGUnitary) -> DGUnitary:
    """Unitary product U1 U2 (U2 applied first); rotations multiply."""
    if U1.n != U2.n:
        raise ValueError("cannot compose unitaries on different sizes")
    return DGUnitary.from_rotation(U1.n, U1.rotation() @ U2.rotation())


def conjugate_state(U: DGUnitary, s: DGaussState) -> DGaussState:
    """Covariance update of U rho U^dag: M_ext -> R M_ext R^T."""
    if U.n != s.n:
        raise ValueError("unitary and state sizes differ")
    R = U.rotation()
    Me = R @ s.M_ext @ R.T
    m = 2 * s.n
    return DGaussState(s.n, (Me[:m, :m] - Me[:m, :m].T) / 2, Me[:m, m], check=False)


def _extend(J, ext: int):
    return J if len(J) % 2 == 0 else tuple(J) + (ext,)


def conjugate_monomial(U: DGUnitary, J, max_terms: int | None = None) -> dict:
    """Expansion of U gamma_J U^dag as {K: coefficient} over monomials gamma_K.

    Coefficients are antisymmetrized minors det(R[K~, J~]) of the
    extended rotation, where X~ appends the extension axis 2n to
    odd-degree index sets.  K runs over subsets of [2n] whose extension
    has the same size as J~, i.e. |K| = |J~| and |K| = |J~| - 1.  For
    the class whose parity differs from |J| the minor acquires the
    phase i^{|K|-|J|} from the extension-axis bookkeeping (pinned
    against dense conjugation in the test suite).
    """
    J = tuple(sorted(int(j) for j in J))
    ext = 2 * U.n
    if any(not 0 <= j < ext for j in J):
        raise IndexError(f"monomial index out of range in {J}")
    R = U.rotation()
    Jt = _extend(J, ext)
    mt = len(Jt)
    terms = sum(1 for _ in combinations(range(ext), mt))
    terms += sum(1 for _ in combinations(range(ext), mt - 1)) if mt else 0
    if max_terms is not None and terms > max_terms:
        raise ValueError(f"expansion needs {terms} coefficients, budget {max_terms}")
    out: dict[tuple[int, ...], complex] = {}
    cols = np.array(Jt, dtype=int)
    for size in (mt, mt - 1):
        if size < 0:
            continue
        for K in combinations(range(ext), size):
            Kt = _extend(K, ext)
            if len(Kt) != mt:
                continue
            minor = np.linalg.det(R[np.ix_(np.array(Kt, dtype=int), cols)]) if mt else 1.0
            if abs(minor) < 1e-14:
                continue
            phase = (1j) ** ((len(K) - len(J)) % 4)
            out[K] = phase * minor
    return out


# ---------------------------------------------------------------------------
# Gates

MATCHGATE = "matchgate"
LINE1 = "line1"
FSWAP = "fswap"


def _in_window(j: int, k: int) -> bool:
    """True iff {j, k} sits inside one matchgate Majorana window."""
    for a in (j, k):
        lo = 4 * (a // 4)
        if lo <= j <= lo + 3 and lo <= k <= lo + 3:
            return True
        lo = 4 * ((a - 2) // 4) + 2
        if lo >= 0 and lo <= j <= lo + 3 and lo <= k <= lo + 3:
            return True
    return False


@dataclass(frozen=True)
class Gate:
    """One element of the compiler's alphabet; see the module docstring."""

    kind: str
    axes: tuple[int, int] | None = None
    angle: float | None = None
    line: int | None = None

    def __post_init__(self):
        if self.kind in (MATCHGATE, LINE1):
            if self.axes is None or self.angle is None or self.line is not None:
                raise ValueError(f"{self.kind} gate needs axes and angle only")
            j, k = self.axes
            if j == k:
                raise ValueError("gate axes must differ")
            pr = PlaneRotation((j, k), self.angle)
            object.__setattr__(self, "angle", pr.angle)
        elif self.kind == FSWAP:
            if self.line is None or self.axes is not None or self.angle is not None:
                raise ValueError("fswap gate needs a line index only")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")

    def validate(self, n: int):
        ext = 2 * n
        if self.kind == MATCHGATE:
            j, k = self.axes
            if not (0 <= j < ext and 0 <= k < ext and _in_window(j, k)):
                raise ValueError(f"matchgate axes {self.axes} outside every window")
        elif self.kind == LINE1:
            if not set(self.axes) <= {0, 1, ext}:
                raise ValueError(f"line1 axes {self.axes} leave the first line")
        else:
            if not 0 <= self.line < n - 1:
                raise ValueError(f"fswap line {self.line} out of range")


class GateError(ValueError):
    """Gate ``index`` of a sequence does not fit the register."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate list; gates apply left to right.

    This is the one place gates are validated against the register;
    the functions that take a sequence trust it.
    """

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        gates = tuple(self.gates)
        for i, g in enumerate(gates):
            try:
                g.validate(self.n)
            except ValueError as exc:
                raise GateError(i, str(exc)) from None
        object.__setattr__(self, "gates", gates)

    def __len__(self):
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


# Local 4x4 rotation of the adjacent fermionic swap: exponential of twice
# its quadratic generator restricted to the four Majorana axes involved.
_FSWAP_H4 = np.zeros((4, 4))
for (_j, _k), _c in (((0, 3), np.pi / 4), ((1, 2), -np.pi / 4),
                     ((0, 1), -np.pi / 4), ((2, 3), -np.pi / 4)):
    _FSWAP_H4[_j, _k] = _c
    _FSWAP_H4[_k, _j] = -_c
FSWAP_ROTATION4 = scipy.linalg.expm(2 * _FSWAP_H4)


def gate_update(g: Gate, n: int) -> tuple[list[int], np.ndarray]:
    """(rows, Q): the gate's rotation acts as Q on the listed axes only.

    The gate must already be valid for n (see GateSequence).
    """
    if g.kind == FSWAP:
        a = g.line
        return [2 * a, 2 * a + 1, 2 * a + 2, 2 * a + 3], FSWAP_ROTATION4
    j, k = g.axes
    c, s = np.cos(g.angle), np.sin(g.angle)
    return [j, k], np.array([[c, s], [-s, c]])


def gate_rotation(g: Gate, n: int) -> np.ndarray:
    """Full (2n+1)-dimensional rotation effected by the gate."""
    g.validate(n)
    rows, Q = gate_update(g, n)
    R = np.eye(2 * n + 1)
    R[np.ix_(rows, rows)] = Q
    return R


def sequence_rotation(seq: GateSequence) -> np.ndarray:
    """Product rotation of a gate list (gates applied in order)."""
    acc = np.eye(2 * seq.n + 1)
    for g in seq:
        rows, Q = gate_update(g, seq.n)
        acc[rows, :] = Q @ acc[rows, :]
    return acc


def gate_dense(g: Gate, n: int) -> np.ndarray:
    """Exact dense unitary of one gate (oracle-capped sizes only)."""
    g.validate(n)
    if g.kind == FSWAP:
        return oracle.fswap(n, g.line, g.line + 1)
    j, k = g.axes
    h = np.zeros((2 * n, 2 * n))
    d = np.zeros(2 * n)
    if 2 * n in (j, k):
        a = j if k == 2 * n else k
        # Rotation angle theta in the (a, 2n) plane comes from the
        # displacement d_a = -theta/2 (R = exp(-2 d_a s_{a,2n})).
        d[a] = -g.angle / 2 if k == 2 * n else g.angle / 2
    else:
        h[j, k] = g.angle / 2
        h[k, j] = -g.angle / 2
    return oracle.exp_quadratic(n, h, d)


def sequence_dense(seq: GateSequence) -> np.ndarray:
    """Dense product unitary of a gate list (applied in order)."""
    acc = np.eye(1 << seq.n, dtype=complex)
    for g in seq:
        acc = gate_dense(g, seq.n) @ acc
    return acc


def _compile_adjacency(n: int):
    ext = 2 * n
    def allowed(j: int, k: int) -> bool:
        if {j, k} <= {0, 1, ext}:
            return True
        if j == ext or k == ext:
            return False
        return _in_window(j, k)
    return allowed


def compile_rotation(R, n: int) -> GateSequence:
    """Factor R in SO(2n+1) into the nearest-neighbor gate alphabet.

    Plane-rotation synthesis over the allowed-axis-pair graph; the
    emitted sequence multiplies back to R (gates applied in order) and
    contains at most (2n+1)^2 gates, comfortably inside the documented
    C * n^3 envelope with C = 9.
    """
    R = check_rotation(np.asarray(R, dtype=float))
    if R.shape[0] != 2 * n + 1:
        raise ValueError("rotation dimension does not match n")
    ext = 2 * n
    gates = []
    for pr in plane_decompose(R, _compile_adjacency(n)):
        j, k = pr.axes
        kind = LINE1 if ext in (j, k) else MATCHGATE
        gates.append(Gate(kind, axes=(j, k), angle=pr.angle))
    return GateSequence(n, tuple(gates))


def compile(U: DGUnitary) -> GateSequence:  # noqa: A001 - established API name
    return compile_rotation(U.rotation(), U.n)
