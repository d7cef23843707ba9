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

A gate list is a GateSequence: four checked columns (kind codes, axes,
fswap lines, angles), one entry per gate, and nothing derived from
them.  The register rules are checked when a sequence is built, one
array step per rule.  Its readers, ``sequence_rotation`` and the
simulator's fold, zip one derivation, ``_gate_blocks``: each gate's rows
as a slice and its small rotation Q, at the row shift the reader picks
(0 for the natural order, 1 for the simulator's fold order).  A gate's
fields follow one rule, ``_gate_row``, whether they come as a ``Gate``
or as a gate document.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import oracle
from .antisym import (
    NumericalAdmissibilityError,
    _as_qubit_count,
    _as_real,
    _check_fields,
    _check_generator,
    _is_int,
    _is_number,
    _scipy_linalg,
    as_indices,
    bordered,
    check_antisymmetric,
    check_rotation,
    expm_antisym,
    plane_decompose,
    wrap_angles,
)
from .state import DGaussState, carrier_state

# Largest entry of U U^dag - I that still counts as unitary.
UNITARY_TOL = 1e-8


class LogBranchError(NumericalAdmissibilityError):
    """The matrix logarithm of a rotation sits on the branch cut."""


def lie_embed(h, d) -> np.ndarray:
    """Extended antisymmetric generator 2*[[h, -d], [d^T, 0]].

    The exponential of this matrix is the rotation effected by
    exp(1/2 gamma^T h gamma + i d^T gamma): quadratic terms g_j g_k map
    to plane generators 2 s_jk, linear terms couple to the extension
    axis.
    """
    return bordered(2 * check_antisymmetric(h), -2 * _as_real(d, "generator"))


@dataclass(frozen=True)
class DGUnitary:
    """Displaced Gaussian unitary given as a generator (h, d = 0 by default) or a rotation R, never both."""

    n: int
    h: np.ndarray | None = None
    d: np.ndarray | None = None
    R: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _as_qubit_count(self.n))
        if self.R is not None:
            if self.h is not None or self.d is not None:
                raise ValueError("give a generator or a rotation, not both")
            R = check_rotation(self.R)
            if R.shape != (2 * self.n + 1, 2 * self.n + 1):
                raise ValueError("rotation dimension does not match n")
            object.__setattr__(self, "R", R)
        elif self.h is None:
            raise ValueError("need a generator or a rotation")
        else:
            h, d = _check_generator(self.n, self.h, np.zeros(2 * self.n) if self.d is None else self.d)
            object.__setattr__(self, "h", h)
            object.__setattr__(self, "d", d)

    @classmethod
    def from_generator(cls, n: int, h, d=None) -> "DGUnitary":
        return cls(n, h=h, d=d)

    @classmethod
    def from_rotation(cls, n: int, R) -> "DGUnitary":
        return cls(n, R=R)

    @classmethod
    def identity(cls, n: int) -> "DGUnitary":
        n = _as_qubit_count(n)
        return cls(n, h=np.zeros((2 * n, 2 * n)), d=np.zeros(2 * n))

    def rotation(self) -> np.ndarray:
        """The rotation, computed once and held; one failing check_rotation raises NumericalAdmissibilityError."""
        if self.R is None:
            R = expm_antisym(lie_embed(self.h, self.d))
            try:
                check_rotation(R)
            except ValueError as exc:
                raise NumericalAdmissibilityError(f"the rotation exp(lie_embed(h, d)) is refused: {exc}") from None
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
        G = np.real(_scipy_linalg().logm(R))
        G = (G - G.T) / 2
        m = 2 * self.n
        return G[:m, :m] / 2, G[m, :m] / 2

    def dense(self) -> np.ndarray:
        """Dense unitary (oracle-capped); NumericalAdmissibilityError unless unitary within UNITARY_TOL."""
        h, d = self.generator()
        U = oracle.exp_quadratic(self.n, h, d)
        if not np.abs(U @ U.conj().T - np.eye(len(U))).max() <= UNITARY_TOL:  # NaN included
            raise NumericalAdmissibilityError("the dense unitary exp(quadratic(h, d)) is not unitary")
        return U


def conjugate_state(U: DGUnitary, s: DGaussState) -> DGaussState:
    """Covariance update of U rho U^dag: M_ext -> R M_ext R^T, through ``carrier_state``."""
    if U.n != s.n:
        raise ValueError("unitary and state sizes differ")
    R = U.rotation()
    return carrier_state(R @ s.M_ext @ R.T)


def conjugate_monomial(U: DGUnitary, J, max_terms: int | None = None) -> dict:
    """Expansion of U gamma_J U^dag as {K: coefficient} over monomials gamma_K.

    ``J`` follows ``as_indices``.  Coefficients are antisymmetrized
    minors det(R[K~, J~]) of the extended rotation, where X~ appends the
    extension axis 2n to odd-degree index sets.  K~ runs over the
    subsets of the 2n+1 extended axes of size |J~|, comb(2n+1, |J~|)
    of them, and K is K~ without the axis 2n.  For the class whose
    parity differs from |J| the minor acquires the phase i^{|K|-|J|}
    from the extension-axis bookkeeping (pinned against dense
    conjugation in the test suite).
    """
    ext = 2 * U.n
    J = as_indices(J, ext, "monomial index")
    Jt = J + (ext,) if len(J) % 2 else J
    terms = math.comb(ext + 1, len(Jt))
    if max_terms is not None and terms > max_terms:
        raise ValueError(f"expansion needs {terms} coefficients, budget {max_terms}")
    R = U.rotation()
    out: dict[tuple[int, ...], complex] = {}
    for Kt in combinations(range(ext + 1), len(Jt)):
        minor = np.linalg.det(R[np.ix_(Kt, Jt)]) if Jt else 1.0
        if abs(minor) < 1e-14:
            continue
        K = Kt[:-1] if ext in Kt else Kt
        out[K] = (1j) ** ((len(K) - len(J)) % 4) * minor
    return out


# ---------------------------------------------------------------------------
# Gates

MATCHGATE = "matchgate"
LINE1 = "line1"
FSWAP = "fswap"

# GateSequence.kind holds codes into this tuple.
KINDS = (MATCHGATE, LINE1, FSWAP)
_MATCHGATE, _LINE1, _FSWAP = range(3)


def _in_window(j, k):
    """Whether axes j, k >= 0 sit inside one matchgate Majorana window.

    The windows are {4m..4m+3} and {4m+2..4m+5}.  Works elementwise on
    integer arrays as well as on ints.
    """
    return (j // 4 == k // 4) | ((j - 2) // 4 == (k - 2) // 4)


# A gate's fields by kind: the one table for a Gate and a gate document.
_GATE_FIELDS = {MATCHGATE: {"kind", "axes", "angle"}, LINE1: {"kind", "axes", "angle"}, FSWAP: {"kind", "line"}}


class GateError(ValueError):
    """Gate ``index`` of a sequence breaks a gate rule; ``field`` names the field at fault, if one does."""

    def __init__(self, index: int, message: str, field: str | None = None):
        super().__init__(message)
        self.index = index
        self.field = field


def _gate_row(doc, i: int):
    """(kind code, j, k, line, angle) of gate ``i`` from the dict of its fields: the one field rule.

    A Gate and a gate document both pass here.  A breach raises GateError
    naming the field at fault, if one is.  The angle is not yet normalized.
    """
    kind = doc.get("kind") if isinstance(doc, dict) else None
    keys = _GATE_FIELDS.get(kind) if isinstance(kind, str) else None
    if keys is None or doc.keys() != keys:
        error = functools.partial(GateError, i)
        _check_fields(doc, {"kind"}, {"axes", "angle", "line"}, error)
        if keys is None:
            raise error(f"unknown gate kind {kind!r}")
        _check_fields(doc, keys, (), error)
    if kind == FSWAP:
        if not _is_int(doc["line"]):
            raise GateError(i, "line must be an integer", "line")
        return _FSWAP, -1, -1, doc["line"], 0.0
    axes, angle = doc["axes"], doc["angle"]
    # A document's axes are a list, tested first; a Gate's may also be a tuple or an array.
    if not ((isinstance(axes, list) or isinstance(axes, (tuple, np.ndarray))) and len(axes) == 2):
        raise GateError(i, "axes must be a pair", "axes")
    j, k = axes
    if not (_is_int(j) and _is_int(k)):
        raise GateError(i, "axes must be integers", "axes")
    if j == k:
        raise GateError(i, "gate axes must differ")
    if not _is_number(angle):
        raise GateError(i, "angle must be a number", "angle")
    try:
        return _MATCHGATE if kind == MATCHGATE else _LINE1, j, k, -1, float(angle)
    except OverflowError as exc:
        raise GateError(i, str(exc), "angle") from None


@dataclass(frozen=True)
class Gate:
    """One element of the compiler's alphabet (module docstring); its fields follow ``_gate_row``."""

    kind: str
    axes: tuple[int, int] | None = None
    angle: float | None = None
    line: int | None = None

    def __post_init__(self):
        keys = _GATE_FIELDS.get(self.kind, ()) if isinstance(self.kind, str) else ()
        _, j, k, line, angle = _gate_row(
            {f: v for f, v in vars(self).items() if f == "kind" or f in keys or v is not None}, 0)
        if self.kind == FSWAP:
            object.__setattr__(self, "line", int(line))
            return
        if not math.isfinite(angle):
            raise GateError(0, f"{self.kind} gate angle {angle} is not finite", "angle")
        object.__setattr__(self, "axes", (int(j), int(k)))
        object.__setattr__(self, "angle", float(wrap_angles([angle])[0]))

    def validate(self, n: int):
        """Raise ValueError unless the gate fits an n-line register (GateSequence's check)."""
        GateSequence(n, (self,))


def _index_column(values) -> np.ndarray:
    """One integer per gate (an axis or a line) as int64.

    A value outside int64 raises GateError for its gate: it fits no
    register.
    """
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise GateError(i, f"gate index {values[i]} out of range") from None


def _check_gates(n: int, kind: np.ndarray, axes: np.ndarray, line: np.ndarray, angle: np.ndarray):
    """Raise GateError for the first gate that does not fit an n-line register.

    The rules, one array step each: every angle is finite; a matchgate's
    axes lie in [0, 2n) inside one window; a line1 gate's axes are among
    {0, 1, 2n}; an fswap's line a satisfies 0 <= a < n - 1.
    """
    ext = 2 * n
    j, k = axes[:, 0], axes[:, 1]
    match_ok = (j >= 0) & (j < ext) & (k >= 0) & (k < ext) & _in_window(j, k)
    line1_ok = (((axes >= 0) & (axes <= 1)) | (axes == ext)).all(axis=1)
    fswap_ok = (line >= 0) & (line < n - 1)
    finite = np.isfinite(angle)
    ok = finite & np.where(kind == _MATCHGATE, match_ok,
                           np.where(kind == _LINE1, line1_ok, fswap_ok))
    if ok.all():
        return
    i = int(np.argmin(ok))
    pair = tuple(axes[i].tolist())
    if not finite[i]:
        raise GateError(i, f"{KINDS[kind[i]]} angle {float(angle[i])} is not finite")
    if kind[i] == _MATCHGATE:
        raise GateError(i, f"matchgate axes {pair} outside every window")
    if kind[i] == _LINE1:
        raise GateError(i, f"line1 axes {pair} leave the first line")
    raise GateError(i, f"fswap line {int(line[i])} out of range")


# The adjacent fermionic swap's 4x4 rotation on its four Majorana axes: the output of
# scipy.linalg.expm(2 * H4), H4 its generator, frozen as a literal that a test pins.
FSWAP_ROTATION4 = np.array([
    [0.0, -2.1107242779036858e-16, 0.9999999999999999, 2.1655851635769996e-16],
    [1.1102230246251565e-16, 0.0, -5.357004419700457e-18, 0.9999999999999998],
    [1.0, 2.220446049250313e-16, 1.1102230246251565e-16, -1.1102230246251565e-16],
    [-1.7896731706608828e-16, 1.0, 2.2809200106419876e-16, 0.0],
])
FSWAP_ROTATION4.flags.writeable = False


def _plane_rotations(angle) -> np.ndarray:
    """Plane gates' (p, 2, 2) Q blocks [[c, s], [-s, c]]: one expression, one set of bits (``_gate_blocks``)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.stack((c, s, -s, c), axis=1).reshape(-1, 2, 2)


class GateSequence:
    """Ordered gate list held as four checked, read-only columns; gates apply left to right.

    For g gates:

    - ``kind``: (g,) int8 codes into KINDS (matchgate 0, line1 1, fswap 2);
    - ``axes``: (g, 2) int64, the plane (j, k) of a matchgate or line1
      gate, -1 for an fswap;
    - ``line``: (g,) int64, the lower line a of an fswap on (a, a+1),
      -1 otherwise;
    - ``angle``: (g,) float64 rotation angle in (-pi, pi], 0 for an fswap.

    The columns are the whole sequence and how it is read: it holds
    nothing derived from them and yields no Gate objects.  Its readers,
    ``sequence_rotation`` and ``simulator.run``, zip the rows and Q blocks
    that ``_gate_blocks`` derives from them in array steps.
    ``GateSequence(n, gates)`` takes Gate objects and keeps their angles;
    the parser and the compiler fill the columns directly
    (``_from_columns``).  This is the one place gates are checked against
    the register, one array step per rule; the functions that take a
    sequence trust it.
    """

    def __init__(self, n: int, gates=()):
        gates = tuple(gates)
        pairs = [(-1, -1) if g.axes is None else g.axes for g in gates]
        self.__post_init__(n, [KINDS.index(g.kind) for g in gates], [p[0] for p in pairs],
                           [p[1] for p in pairs], [-1 if g.line is None else g.line for g in gates],
                           [0.0 if g.angle is None else g.angle for g in gates])

    @classmethod
    def _from_columns(cls, n: int, kind, j, k, line, angle) -> "GateSequence":
        """A sequence from per-gate columns: kind codes, axes j and k, lines, angles.

        The caller has checked each gate's fields by ``_gate_row``'s rule
        and normalized its angle; the register rules are checked here.
        """
        seq = cls.__new__(cls)
        seq.__post_init__(n, kind, j, k, line, angle)
        return seq

    def __post_init__(self, n: int, kind, j, k, line, angle):
        """Fill the read-only columns from per-gate values and check them against an n-line register."""
        self.n = _as_qubit_count(n)
        self.kind = np.array(kind, dtype=np.int8)
        self.axes = np.stack((_index_column(j), _index_column(k)), axis=1)
        self.line = _index_column(line)
        self.angle = np.array(angle, dtype=float)
        for a in (self.kind, self.axes, self.line, self.angle):
            a.flags.writeable = False
        _check_gates(n, self.kind, self.axes, self.line, self.angle)

    def __len__(self):
        return len(self.kind)


def _gate_blocks(gates: GateSequence, shift: int):
    """Each gate's rows and Q, as columns to zip: (slices, lowest rows, highest rows, Qs).

    Axis a sits at row (a + shift) % (2n + 1): shift 0 is the natural
    order, and shift 1 the simulator's fold order, in which every gate
    spans at most four consecutive rows.  A gate's slice, a view and not a
    gathered copy, picks its rows in the order of its axes: slice(p, q +- 1,
    q - p) for a plane gate on rows (p, q), stop None down to row 0, and
    slice(2a + shift, 2a + shift + 4, 1) for an fswap on lines (a, a + 1).
    Q is a view of a plane gate's ``_plane_rotations`` block, or
    FSWAP_ROTATION4.  Slices and Qs are iterators, built as they are zipped.
    """
    fswap = gates.kind == _FSWAP
    ends = np.where(fswap[:, None], 2 * gates.line[:, None] + shift + [0, 3],
                    (gates.axes + shift) % (2 * gates.n + 1))
    step = np.where(fswap, 1, ends[:, 1] - ends[:, 0])
    last = ends[:, 1] + np.sign(step)
    Q = [*_plane_rotations(gates.angle[~fswap]), FSWAP_ROTATION4]
    return (map(slice, ends[:, 0].tolist(), np.where(last < 0, None, last).tolist(), step.tolist()),
            *np.sort(ends).T.tolist(), map(Q.__getitem__, np.where(fswap, -1, np.cumsum(~fswap) - 1).tolist()))


def sequence_rotation(seq: GateSequence) -> np.ndarray:
    """Product rotation of a gate list (gates applied in order).

    Each gate multiplies its rows of the accumulator by its Q in place,
    through the slice view of ``_gate_blocks`` at shift 0 (axis a at row
    a): the bits of the gathered ``Q @ acc[rows]`` (the fold-reference
    tests compare them).
    """
    acc = np.eye(2 * seq.n + 1)
    slices, _, _, Qs = _gate_blocks(seq, 0)
    for sl, Q in zip(slices, Qs):
        V = acc[sl]
        V[...] = Q @ V
    return acc


def conjugate_dense(seq: GateSequence, rho) -> np.ndarray:
    """Dense state rho after the gate list: rho -> U rho U^dag, one gate at a time.

    Each gate is U = c I + s D with D a signed permutation, D[y, perm[y]]
    = d[y] (oracle-capped n), so no matrix exponential is formed.  A
    plane gate on Majorana axes (j, k) is exp((theta/2) g_j g_k) =
    cos(theta/2) I + sin(theta/2) g_j g_k.  A line1 gate on (a, 2n) is
    the displacement exp(i t g_a) = cos t I + sin t (i g_a) with
    t = d_a = -theta/2 (theta/2 on (2n, a)): its rotation exp(-2 d_a
    s_{a,2n}) turns the (a, 2n) plane by theta.  Both D square to -I, and
    U rho U^dag = c^2 rho + cs (D rho + rho D^dag) + s^2 D rho D^dag,
    where D rho = d[:, None] * rho[perm] is a gather and a phase.  An
    fswap is D alone.  Each gate costs a few O(4^n) elementwise steps and
    no matrix product.
    """
    n, ext = seq.n, 2 * seq.n
    rho = np.asarray(rho, dtype=complex)
    columns = zip(seq.kind.tolist(), seq.axes.tolist(), seq.line.tolist(), seq.angle.tolist())
    for code, (j, k), line, angle in columns:
        if code == _FSWAP:
            perm, d = oracle.fswap_permutation(n, line)
            rho = d[:, None] * rho[np.ix_(perm, perm)] * d.conj()
            continue
        if ext in (j, k):
            t = -angle / 2 if k == ext else angle / 2
            perm, d = oracle.monomial_permutation(n, (j if k == ext else k,))
            d = 1j * d
        else:
            t = angle / 2
            perm, d = oracle.monomial_permutation(n, (min(j, k), max(j, k)))
            if j > k:
                d = -d
        c, s, dh = np.cos(t), np.sin(t), d.conj()
        Drho = d[:, None] * rho[perm]
        rho = c * c * rho + c * s * (Drho + rho[:, perm] * dh) + s * s * (Drho[:, perm] * dh)
    return rho


def _compile_adjacency(n: int) -> np.ndarray:
    """Allowed planes of the compiler: one matchgate window, or within {0, 1, 2n}."""
    ext = 2 * n
    i = np.arange(ext + 1)
    j, k = i[:, None], i[None, :]
    line1 = (i <= 1) | (i == ext)
    return (_in_window(j, k) & (j < ext) & (k < ext)) | (line1[:, None] & line1[None, :])


def compile(U: DGUnitary) -> GateSequence:  # noqa: A001 - established API name
    """Factor U's rotation R in SO(2n+1) into the nearest-neighbor gate alphabet.

    Plane-rotation synthesis over the allowed-axis-pair graph
    (``plane_decompose`` of R, which ``DGUnitary`` has checked); the
    emitted sequence multiplies back to R (gates applied in order) and
    contains at most (2n+1)^2 gates, comfortably inside the documented
    C * n^3 envelope with C = 9.  A plane that touches the extension
    axis 2n is a line1 gate, any other a matchgate.
    """
    n = U.n
    axes, angles = plane_decompose(U.rotation(), _compile_adjacency(n), checked=True)
    kind = np.where((axes == 2 * n).any(axis=1), _LINE1, _MATCHGATE)
    # plane_decompose normalized each angle twice; a Gate normalizes it once more.
    return GateSequence._from_columns(n, kind, axes[:, 0], axes[:, 1], np.full(len(axes), -1),
                                      wrap_angles(angles))
