"""Numerical kernels for real antisymmetric matrices.

Pfaffians, restrictions, canonical (block-diagonal) forms, matrix
exponentials into SO(m), and factorizations of special orthogonal
matrices into plane rotations restricted to an adjacency graph.  A
factorization is returned as arrays, planes (g, 2) and angles (g,);
no object is made per rotation.

Every operand is read as float64 by ``_as_real``, which refuses a
complex one; ``check_antisymmetric`` reads every antisymmetric one.

All indices are 0-based.  The canonical form of a real antisymmetric
matrix M is

    R @ M @ R.T = blkdiag([[0, l_0], [-l_0, 0]], ..., 0-block)

with ``R`` special orthogonal, the ``l_j`` sorted descending, and any
kernel routed to the trailing subspaces.  For even-dimensional
full-rank input with negative Pfaffian no such form exists with all
``l_j`` nonnegative and ``det R = +1`` simultaneously (the Pfaffian
sign is an SO-conjugation invariant); in that case the last ``l`` is
returned negative and ``det R = +1`` is kept.

SciPy is imported on use (``_scipy_linalg``), and ``_blas_pools`` finds
the OpenBLAS thread pools for the CLI's one-thread rule (see cli).

NumericalAdmissibilityError is the root of every numerical fault in
dgsim (the CLI exits 3 on each).  NonFiniteError, a NaN or an infinity
refused by check_antisymmetric, check_rotation, _check_generator,
oracle.check_state and embedding._check_unitary, is one and a ValueError.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import sys
from math import atan2, isfinite, pi

import numpy as np

ANTISYM_TOL = 1e-12
ORTHO_TOL = 1e-10
# Canonical values at most this (relative to the largest entry) are kernel.
KERNEL_TOL = 1e-10


class DimensionError(ValueError):
    """Operation requires a different matrix dimension (e.g. even size)."""


class IndexRuleError(ValueError, IndexError):
    """An index tuple is not strictly increasing, or an entry is out of range."""


class NumericalAdmissibilityError(RuntimeError):
    """Not admissible: data that describes no state, a determinant below the clamping
    tolerance, a result that is not finite.  The root of every such fault (CLI exit 3)."""


class DecompositionError(NumericalAdmissibilityError):
    """A requested factorization does not exist for the given input."""


class NonFiniteError(ValueError, NumericalAdmissibilityError):
    """A matrix or vector holds a NaN or an infinity."""


def _is_int(value) -> bool:
    """Whether a value is an integer: ``int`` or ``np.integer``, never ``bool``; the one integer rule."""
    return type(value) is int or isinstance(value, np.integer)


def as_index(value, what: str) -> int:
    """``value`` as an int if ``_is_int(value)``; else ValueError."""
    if _is_int(value):
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _as_qubit_count(n) -> int:
    """A register size ``n`` as an int (``as_index``), 0 included; a negative one raises ValueError."""
    n = as_index(n, "qubit count")
    if n < 0:
        raise ValueError("qubit count must not be negative")
    return n


def _is_number(value) -> bool:
    """Whether ``value`` is a real number: an int or a float, numpy's too, never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _check_fields(obj, required, optional, error):
    """``obj``, a dict with every required field and no others but optional ones; else raise ``error(message)``."""
    if not isinstance(obj, dict):
        raise error(f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise error(f"unknown field(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise error(f"missing field(s) {sorted(missing)}")
    return obj


def as_indices(J, m: int | None, what: str) -> tuple[int, ...]:
    """Index tuple ``J`` as ints (see ``as_index``): strictly increasing and, given m, in [0, m).

    Lines and Majorana indices follow this one rule; an order or range
    error raises IndexRuleError.
    """
    J = tuple(as_index(j, what) for j in J)
    if any(b <= a for a, b in zip(J, J[1:])):
        raise IndexRuleError(f"{what.replace('index', 'indice')}s must be strictly increasing")
    bad = [j for j in J if m is not None and not 0 <= j < m]
    if bad:
        raise IndexRuleError(f"{what} {bad[0]} out of range")
    return J


def as_bits(x, k: int) -> tuple[int, ...]:
    """Outcome bits x of k measured lines as ints, each 0 or 1."""
    x = tuple(as_index(b, "outcome bit") for b in x)
    if len(x) != k:
        raise ValueError("line subset and outcome lengths differ")
    if any(b not in (0, 1) for b in x):
        raise ValueError("outcome bits must be 0 or 1")
    return x


def _as_real(x, what: str) -> np.ndarray:
    """``x`` as a float64 array, not copied if it is one; a complex ``x`` raises ValueError naming ``what``."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError(f"{what} must be real, got dtype {x.dtype}")
    return x.astype(float, copy=False)


def check_antisymmetric(M) -> np.ndarray:
    """Validate and return ``M`` as a real (``_as_real``), finite (else NonFiniteError), square, antisymmetric array."""
    M = _as_real(M, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if M.size:
        top = float(np.abs(M).max())
        if not isfinite(top):
            raise NonFiniteError("matrix has non-finite entries")
        if np.abs(M + M.T).max() > ANTISYM_TOL * max(1.0, top):
            raise ValueError("matrix is not antisymmetric within tolerance")
    return M


def check_rotation(R) -> np.ndarray:
    """Validate and return ``R`` as a special orthogonal ndarray."""
    R = _as_real(R, "matrix")
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {R.shape}")
    if not np.isfinite(R).all():
        raise NonFiniteError("matrix has non-finite entries")
    m = R.shape[0]
    if np.abs(R.T @ R - np.eye(m)).max(initial=0.0) > ORTHO_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(R) - 1.0) > 1e-8:
        raise ValueError("matrix has determinant != +1")
    return R


def _check_carrier(M_ext) -> np.ndarray:
    """``M_ext`` as a float extended carrier: antisymmetric (``check_antisymmetric``), odd dimension."""
    M_ext = check_antisymmetric(M_ext)
    if M_ext.shape[0] % 2 == 0:
        raise ValueError("extended carrier must have odd dimension")
    return M_ext


def _check_generator(n: int, h, d) -> tuple[np.ndarray, np.ndarray]:
    """Generator (h, d) on n lines as float arrays: h antisymmetric 2n x 2n, d finite of length 2n."""
    h = check_antisymmetric(h)
    d = _as_real(d, "generator")
    if h.shape != (2 * n, 2 * n) or d.shape != (2 * n,):
        raise ValueError("generator dimensions do not match n")
    if not np.isfinite(d).all():
        raise NonFiniteError("generator has non-finite entries")
    return h, d


def bordered(A, v) -> np.ndarray:
    """New float array [[A, v], [-v^T, 0]] for A m x m and v of length m.

    This is the layout of every extended matrix: a carrier (M, mu), a
    generator (h, d), and the embedding's carriers.
    """
    A = _as_real(A, "matrix")
    v = _as_real(v, "border")
    m = v.shape[0] if v.ndim == 1 else -1
    if A.shape != (m, m):
        raise DimensionError(
            f"border of shape {v.shape} does not fit a matrix of shape {A.shape}"
        )
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = A
    out[:m, m] = v
    out[m, :m] = -v
    return out


def pfaffian(M) -> float:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Skew-symmetric tridiagonalization with partial pivoting, O(m^3).
    Satisfies Pf(M)^2 = det(M).
    """
    M = check_antisymmetric(M)
    m = M.shape[0]
    if m % 2:
        raise DimensionError("Pfaffian requires even dimension")
    A = M.copy()
    val = 1.0
    for k in range(0, m - 1, 2):
        kp = k + 1 + int(np.abs(A[k + 1:, k]).argmax())
        if kp != k + 1:
            A[[k + 1, kp]] = A[[kp, k + 1]]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            val = -val
        if A[k + 1, k] == 0.0:
            return 0.0
        val *= A[k, k + 1]
        if k + 2 < m:
            tau = A[k, k + 2:] / A[k, k + 1]
            col = A[k + 2:, k + 1]
            A[k + 2:, k + 2:] += np.outer(tau, col) - np.outer(col, tau)
    return val


def pfaffian_restricted(M, J) -> float:
    """Pfaffian of the restriction of ``M`` to the index tuple ``J``.

    ``J`` follows ``as_indices`` and must have an even number of entries;
    the empty restriction has Pfaffian 1.
    """
    M = check_antisymmetric(M)
    J = as_indices(J, M.shape[0], "restriction index")
    if len(J) % 2:
        raise DimensionError("restriction must have even size")
    return pfaffian(M[np.ix_(J, J)])


def _read_only(x: np.ndarray) -> np.ndarray:
    """``x``, marked read-only: a table held per process is never written."""
    x.flags.writeable = False
    return x


@functools.lru_cache(maxsize=21)
def _popcounts(m: int) -> np.ndarray:
    """Number of set bits of every mask below 2^m, as read-only uint8; held per m."""
    pc = np.zeros(1 << m, dtype=np.uint8)
    for a in range(m):
        pc[1 << a:2 << a] = pc[:1 << a] + 1
    return _read_only(pc)


@functools.lru_cache(maxsize=8)
def _restriction_plan(m: int) -> tuple:
    """The size-only part of ``pfaffian_all_restrictions`` at m axes, held per m.

    One ``(masks, steps)`` per even popcount k >= 2: the masks of popcount
    k (int32) and, per expansion step with b increasing, the pair
    ``(a * m + b, masks ^ low ^ bit)``: the flat index into M of the
    lowest axis a and the step's axis b (int16), and the k-2 masks the
    step reads (int32).  All read-only.
    """
    size = _popcounts(m)
    plan = []
    for k in range(2, m + 1, 2):
        masks = np.flatnonzero(size == k)
        low = masks & -masks
        row = (np.frexp(low)[1] - 1) * m
        rest = masks ^ low
        steps = []
        for _ in range(k - 1):
            bit = rest & -rest
            steps.append((_read_only((row + np.frexp(bit)[1] - 1).astype(np.int16)),
                          _read_only((masks ^ low ^ bit).astype(np.int32))))
            rest ^= bit
        plan.append((_read_only(masks.astype(np.int32)), tuple(steps)))
    return tuple(plan)


def pfaffian_all_restrictions(M) -> np.ndarray:
    """Pfaffians of every even-sized restriction of ``M`` at once.

    Returns an array ``pf`` of length ``2**m`` with ``pf[mask]`` the
    Pfaffian of the restriction to the set bits of ``mask`` (masks of
    odd popcount hold 0, the empty mask holds 1).  Dynamic program over
    the first-row expansion, O(2^m * m): all masks of one popcount k are
    done together, from the k-2 table, as the alternating sum over the
    set bits b above the lowest bit a of M[a, b] * pf[mask - a - b],
    with b increasing.  Used to evaluate all moments of a Gaussian state
    in one pass.  The masks and the indices each step reads depend on m
    alone; ``_restriction_plan`` builds them once per process and holds
    the last 8 sizes asked (3.2 MB at m = 17, 30 MB at m = 20).
    """
    M = check_antisymmetric(M)
    m = M.shape[0]
    if m > 20:
        raise DimensionError("all-restrictions table limited to m <= 20")
    pf = np.zeros(1 << m)
    pf[0] = 1.0
    for masks, steps in _restriction_plan(m):
        acc = np.zeros(len(masks))
        sign = 1.0
        for ab, index in steps:
            acc += sign * M.take(ab) * pf.take(index)
            sign = -sign
        pf[masks] = acc
    return pf


# Phase of a Wick moment of k Majoranas by k mod 8, i^{k/2} or -i * i^{(k+1)/2}, signed zeros included.
WICK_PHASE = _read_only(np.array([1 + 0j, complex(1, -0.0), 1j, 1j, -1 + 0j, -1 + 0j, -0.0 - 1j, 0 - 1j]))


def _real_planes(vecs):
    """Real orthonormal row pairs from positive-eigenvalue eigenvectors."""
    rows = []
    for v in vecs:
        x = np.sqrt(2.0) * v.real
        y = np.sqrt(2.0) * v.imag
        rows.append(y)
        rows.append(x)
    return rows


def block_diagonalize(M):
    """Canonical form of a real antisymmetric matrix.

    Returns ``(R, lambdas)`` with ``R`` special orthogonal such that
    ``R @ M @ R.T`` is block diagonal with blocks
    ``[[0, l], [-l, 0]]`` in descending order of ``l`` and the kernel
    (a single zero row/column for odd dimension) in the trailing
    subspaces.  See the module docstring for the one case where the
    last ``l`` comes out negative.
    """
    M = check_antisymmetric(M)
    m = M.shape[0]
    if m == 0:
        return np.eye(0), []
    scale = max(1.0, float(np.abs(M).max()))
    w, V = np.linalg.eigh(1j * M)
    pos = [(w[i], V[:, i]) for i in range(m) if w[i] > KERNEL_TOL * scale]
    pos.sort(key=lambda p: -p[0])
    lambdas = [float(val) for val, _ in pos]
    rows = _real_planes([v for _, v in pos])
    # Kernel: real orthonormal completion of the plane rows.
    k = m - len(rows)
    if k:
        basis = np.array(rows) if rows else np.zeros((0, m))
        proj = np.eye(m) - basis.T @ basis
        u, s, _ = np.linalg.svd(proj)
        rows.extend(u[:, i] for i in range(k))
    R = np.array(rows)
    if np.linalg.det(R) < 0:
        if k:
            R[-1] = -R[-1]
        else:
            # Flip the weakest plane; its block parameter changes sign.
            R[[-2, -1]] = R[[-1, -2]]
            lambdas[-1] = -lambdas[-1]
    return R, lambdas


def canonical_matrix(lambdas, dim: int) -> np.ndarray:
    """Block-diagonal dim x dim matrix of blocks [[0, l_j], [-l_j, 0]], zeros after them."""
    lam = _as_real(lambdas, "canonical values")
    C = np.zeros((dim, dim))
    j = 2 * np.arange(len(lam))
    C[j, j + 1] = lam
    C[j + 1, j] = -lam
    return C


# Path of each OpenBLAS library mapped into this process -> its (get, set)
# thread-count functions, in the order found; len(sys.modules) at the last scan.
_BLAS_POOLS: dict = {}
_blas_scanned_at = -1


def _blas_pools() -> dict:
    """The thread pools of the OpenBLAS libraries mapped into this process.

    Found in /proc/self/maps (none where it cannot be read) by their
    ``*_get/set_num_threads*`` symbols.  A scan costs about 0.6 ms, so it
    runs again only after an import, the only way a library gets mapped.
    """
    global _blas_scanned_at
    if _blas_scanned_at != len(sys.modules):
        _blas_scanned_at = len(sys.modules)
        try:
            with open("/proc/self/maps") as fh:  # a mapped file's path is all after the fifth field
                paths = {p for p in (line.split(maxsplit=5)[-1].rstrip("\n") for line in fh)
                         if p[0] == "/" and "openblas" in p and not p.endswith(" (deleted)")}
        except OSError:
            paths = set()
        for path in sorted(paths - _BLAS_POOLS.keys()):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
                if get is not None and set_ is not None:
                    get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
                    _BLAS_POOLS[path] = (get, set_)
                    break
    return _BLAS_POOLS


def _scipy_linalg():
    """scipy.linalg, imported on use, so `dgsim run` never loads SciPy (README, Install).

    A pool that the import maps (SciPy's own OpenBLAS) takes the thread
    count of the first pool found (NumPy's, mapped before dgsim runs), so
    inside a CLI verb it runs on one thread too.
    """
    known = len(_blas_pools())
    import scipy.linalg

    pools = list(_blas_pools().values())
    for _, set_ in pools[known:]:
        set_(pools[0][0]())  # the first pool's get()
    return scipy.linalg


def expm_antisym(h) -> np.ndarray:
    """Matrix exponential of a real antisymmetric matrix (lands in SO)."""
    h = check_antisymmetric(h)
    return _scipy_linalg().expm(h)


def wrap_angles(angles) -> np.ndarray:
    """Each angle normalized into (-pi, pi]: atan2(sin a, cos a), with -pi sent to pi.

    The bits are those of the scalar definition (``np.sin``, ``np.cos``
    and ``math.atan2`` of one angle), which gate angles have always
    carried.  Sines and cosines are taken over the whole array; atan2 is
    ``math.atan2`` mapped over them, because ``np.arctan2`` rounds
    differently in the last bit.  The normalization is not idempotent: a
    second pass changes the last bit of some angles.
    """
    a = _as_real(angles, "angles")
    out = np.fromiter(map(atan2, np.sin(a).tolist(), np.cos(a).tolist()), dtype=float, count=len(a))
    out[out <= -pi] = pi
    return out


def plane_decompose(R, allowed, *, checked: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Factor a special orthogonal matrix into allowed plane rotations.

    ``allowed`` is an (m, m) boolean array: a rotation in the (j, k)
    plane is allowed if ``allowed[j, k]`` or ``allowed[k, j]`` (the
    diagonal is ignored), and the allowed pairs must form a connected
    graph.  Returns ``(axes, angles)``: an (g, 2) int64 array of planes
    and their g angles in (-pi, pi].  With ``acc`` starting at the
    identity and left-multiplied in order by exp(a * s_jk), s_jk =
    |j><k| - |k><j|, for each plane (j, k) and angle a, ``acc == R``.
    At most one rotation per (column, row) pair plus one sign fix per
    column is emitted: count <= m^2 (well under the documented C * m^3
    envelope with C = 1).  SO(0) and SO(1) give no rotations.

    One walk: a breadth-first spanning tree from vertex 0, its leaves
    pruned smallest first.  Pruning leaf c clears column c by Givens
    rotations along the unpruned tree towards c, farthest rows first,
    then turns a negative diagonal by pi with c's one unpruned neighbour.
    The matrix is held as a list of row arrays: a rotation of rows a, b
    replaces both by new arrays, with no copy and no per-rotation
    object.  Each angle is normalized as ``wrap_angles`` does, once when
    the rotation is found and once after it is inverted.  ``checked``
    skips ``check_rotation`` for an R it returned (``compile``'s).
    """
    R = R if checked else check_rotation(R)
    m = R.shape[0]
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (m, m):
        raise DimensionError(f"adjacency of shape {allowed.shape} for a rotation of size {m}")
    pairs = allowed | allowed.T
    np.fill_diagonal(pairs, False)
    # tree[v]: v's parent, then its children ascending; empty while v is unreached.
    tree: list[list[int]] = [[] for _ in range(m)]
    order = [0] if m else []
    for v in order:  # read while it grows: vertex 0 has its children before any u can be 0
        for u in np.flatnonzero(pairs[v]).tolist():
            if not tree[u]:
                tree[v].append(u)
                tree[u].append(v)
                order.append(u)
    if len(order) != m:
        raise DecompositionError("adjacency graph is disconnected")
    rows = list(R)  # rows are replaced, never written: R is not changed
    planes: list[tuple[int, int]] = []
    found: list[float] = []

    def rotate(a: int, b: int, angle: float):
        """Left-multiply the matrix by the (a, b) plane rotation."""
        co, si = np.cos(angle), np.sin(angle)
        ra, rb = rows[a], rows[b]
        rows[a] = co * ra + si * rb
        rows[b] = -si * ra + co * rb
        planes.append((a, b))
        found.append(angle)

    degree = [len(t) for t in tree]  # in the unpruned tree; 0 once pruned
    leaves = [v for v in range(m) if degree[v] == 1]  # ascending, so a heap
    for _ in range(m - 1):
        c = heapq.heappop(leaves)
        # Breadth-first from c over the unpruned tree: parent[u] is u's next hop to c.
        near, depth, parent = [c], {c: 0}, {}
        for v in near:
            for u in tree[v]:
                if degree[u] and u not in depth:
                    depth[u], parent[u] = depth[v] + 1, v
                    near.append(u)
        for r in sorted(near[1:], key=depth.get, reverse=True):  # stable: one distance keeps its order
            x = rows[r][c]
            if abs(x) < 1e-15:
                continue
            p = parent[r]
            rotate(p, r, atan2(x, rows[p][c]))
        if rows[c][c] < 0:
            rotate(c, near[1], pi)
        degree[c] = 0
        degree[near[1]] -= 1
        if degree[near[1]] == 1:
            heapq.heappush(leaves, near[1])

    axes = np.array(planes, dtype=np.int64).reshape(-1, 2)[::-1]
    angles = wrap_angles(-wrap_angles(found)[::-1])
    keep = np.abs(angles) > 1e-15
    return axes[keep], angles[keep]
