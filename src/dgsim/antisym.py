"""Numerical kernels for antisymmetric matrices.

Pfaffians, restrictions, canonical (block-diagonal) forms, matrix
exponentials into SO(m), and factorizations of special orthogonal
matrices into plane rotations restricted to an adjacency graph.  A
factorization is returned as arrays, planes (g, 2) and angles (g,);
no object is made per rotation.

All indices are 0-based.  The canonical form of a real antisymmetric
matrix M is

    R @ M @ R.T = blkdiag([[0, l_0], [-l_0, 0]], ..., 0-block)

with ``R`` special orthogonal, the ``l_j`` sorted descending, and any
kernel routed to the trailing subspaces.  For even-dimensional
full-rank input with negative Pfaffian no such form exists with all
``l_j`` nonnegative and ``det R = +1`` simultaneously (the Pfaffian
sign is an SO-conjugation invariant); in that case the last ``l`` is
returned negative and ``det R = +1`` is kept.

NumericalAdmissibilityError is the root of every numerical fault in
dgsim (the CLI exits 3 on each).  NonFiniteError, a NaN or an infinity
refused by check_antisymmetric and check_rotation, is one and a ValueError.
"""

from __future__ import annotations

import heapq
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


def check_antisymmetric(M) -> np.ndarray:
    """Validate and return ``M`` as a finite (else NonFiniteError), square, antisymmetric ndarray."""
    M = np.asarray(M)
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
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {R.shape}")
    if not np.isfinite(R).all():
        raise NonFiniteError("matrix has non-finite entries")
    m = R.shape[0]
    if np.abs(R.T @ R - np.eye(m)).max() > ORTHO_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(R) - 1.0) > 1e-8:
        raise ValueError("matrix has determinant != +1")
    return R


def _check_carrier(M_ext) -> np.ndarray:
    """``M_ext`` as a float extended carrier: antisymmetric (``check_antisymmetric``), odd dimension."""
    M_ext = check_antisymmetric(np.asarray(M_ext, dtype=float))
    if M_ext.shape[0] % 2 == 0:
        raise ValueError("extended carrier must have odd dimension")
    return M_ext


def _check_generator(n: int, h, d) -> tuple[np.ndarray, np.ndarray]:
    """Generator (h, d) on n lines as float arrays: h antisymmetric 2n x 2n, d of length 2n."""
    h = check_antisymmetric(np.asarray(h, dtype=float))
    d = np.asarray(d, dtype=float)
    if h.shape != (2 * n, 2 * n) or d.shape != (2 * n,):
        raise ValueError("generator dimensions do not match n")
    return h, d


def bordered(A, v) -> np.ndarray:
    """New float array [[A, v], [-v^T, 0]] for A m x m and v of length m.

    This is the layout of every extended matrix: a carrier (M, mu), a
    generator (h, d), and the embedding's carriers.
    """
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
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


def pfaffian(M) -> complex | float:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Skew-symmetric tridiagonalization with partial pivoting, O(m^3).
    Satisfies Pf(M)^2 = det(M).
    """
    M = check_antisymmetric(M)
    m = M.shape[0]
    if m % 2:
        raise DimensionError("Pfaffian requires even dimension")
    if m == 0:
        return 1.0
    A = M.astype(complex) if np.iscomplexobj(M) else M.astype(float)
    val = 1.0 + 0j if np.iscomplexobj(A) else 1.0
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


def pfaffian_restricted(M, J) -> complex | float:
    """Pfaffian of the restriction of ``M`` to the index tuple ``J``.

    ``J`` follows ``as_indices`` and must have an even number of entries;
    the empty restriction has Pfaffian 1.
    """
    M = check_antisymmetric(M)
    J = as_indices(J, M.shape[0], "restriction index")
    if len(J) % 2:
        raise DimensionError("restriction must have even size")
    if not J:
        return 1.0
    return pfaffian(M[np.ix_(J, J)])


def _popcounts(m: int) -> np.ndarray:
    """Number of set bits of every mask below 2^m, as uint8."""
    pc = np.zeros(1 << m, dtype=np.uint8)
    for a in range(m):
        pc[1 << a:2 << a] = pc[:1 << a] + 1
    return pc


def pfaffian_all_restrictions(M) -> np.ndarray:
    """Pfaffians of every even-sized restriction of ``M`` at once.

    Returns an array ``pf`` of length ``2**m`` with ``pf[mask]`` the
    Pfaffian of the restriction to the set bits of ``mask`` (masks of
    odd popcount hold 0, the empty mask holds 1).  Dynamic program over
    the first-row expansion, O(2^m * m): all masks of one popcount k are
    done together, from the k-2 table, as the alternating sum over the
    set bits b above the lowest bit a of M[a, b] * pf[mask - a - b],
    with b increasing.  Used to evaluate all moments of a Gaussian state
    in one pass.
    """
    M = check_antisymmetric(M)
    m = M.shape[0]
    if m > 20:
        raise DimensionError("all-restrictions table limited to m <= 20")
    dtype = complex if np.iscomplexobj(M) else float
    pf = np.zeros(1 << m, dtype=dtype)
    pf[0] = 1.0
    size = _popcounts(m)
    for k in range(2, m + 1, 2):
        masks = np.flatnonzero(size == k)
        low = masks & -masks
        a = np.frexp(low)[1] - 1
        rest = masks ^ low
        acc = np.zeros(len(masks), dtype=dtype)
        sign = 1.0
        for _ in range(k - 1):
            bit = rest & -rest
            b = np.frexp(bit)[1] - 1
            t = sign * M[a, b]
            p = pf[masks ^ low ^ bit]
            if dtype is complex:
                # Componentwise, rounded as scalar complex products are
                # (an array complex multiply may fuse multiply and add).
                acc.real += t.real * p.real - t.imag * p.imag
                acc.imag += t.real * p.imag + t.imag * p.real
            else:
                acc += t * p
            rest ^= bit
            sign = -sign
        pf[masks] = acc
    return pf


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
    M = check_antisymmetric(np.asarray(M, dtype=float))
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
    lam = np.asarray(lambdas, dtype=float)
    C = np.zeros((dim, dim))
    j = 2 * np.arange(len(lam))
    C[j, j + 1] = lam
    C[j + 1, j] = -lam
    return C


def expm_antisym(h) -> np.ndarray:
    """Matrix exponential of a real antisymmetric matrix (lands in SO)."""
    import scipy.linalg  # imported on use, so `dgsim run` never loads SciPy (README, Install)

    h = check_antisymmetric(np.asarray(h, dtype=float))
    return scipy.linalg.expm(h)


def wrap_angles(angles) -> np.ndarray:
    """Each angle normalized into (-pi, pi]: atan2(sin a, cos a), with -pi sent to pi.

    The bits are those of the scalar definition (``np.sin``, ``np.cos``
    and ``math.atan2`` of one angle), which gate angles have always
    carried.  Sines and cosines are taken over the whole array; atan2 is
    ``math.atan2`` per angle, because ``np.arctan2`` rounds differently
    in the last bit.  The normalization is not idempotent: a second pass
    changes the last bit of some angles.
    """
    a = np.asarray(angles, dtype=float)
    out = np.array([atan2(s, c) for s, c in zip(np.sin(a).tolist(), np.cos(a).tolist())],
                   dtype=float)
    out[out <= -pi] = pi
    return out


def _spanning_tree(allowed: np.ndarray) -> list[list[int]]:
    """BFS spanning tree of the graph of allowed pairs; raises if disconnected.

    ``tree[v]`` lists v's tree neighbors in the order the search met them:
    its parent first, then its children in ascending order.
    """
    m = len(allowed)
    pairs = allowed | allowed.T
    np.fill_diagonal(pairs, False)
    neighbors = [np.flatnonzero(row).tolist() for row in pairs]
    tree: list[list[int]] = [[] for _ in range(m)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    tree[v].append(u)
                    tree[u].append(v)
                    nxt.append(u)
        frontier = nxt
    if len(seen) != m:
        raise DecompositionError("adjacency graph is disconnected")
    return tree


def _leaf_order(tree: list[list[int]]) -> list[int]:
    """Vertices in the order they are pruned: always the smallest current leaf."""
    degree = [len(t) for t in tree]
    heap = [v for v, d in enumerate(degree) if d == 1]
    gone = [False] * len(tree)
    order: list[int] = []
    while len(order) < len(tree) - 1:
        leaf = heapq.heappop(heap)
        order.append(leaf)
        gone[leaf] = True
        (p,) = (u for u in tree[leaf] if not gone[u])
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(heap, p)
    return order


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
    envelope with C = 1).

    The columns are eliminated leaf by leaf of a spanning tree, each by
    Givens rotations along the tree towards the column's vertex.  The
    matrix is held as a list of row arrays: a rotation of rows a, b
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
    tree = _spanning_tree(allowed)
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

    remaining = [True] * m
    for c in _leaf_order(tree):
        # BFS from c over the remaining vertices: parent = next hop to c.
        parent = {c: c}
        frontier = [c]
        levels = []
        while frontier:
            nxt = []
            for v in frontier:
                for u in tree[v]:
                    if remaining[u] and u not in parent:
                        parent[u] = v
                        nxt.append(u)
            levels.append(nxt)
            frontier = nxt
        for level in reversed(levels):
            for r in level:
                x = rows[r][c]
                if abs(x) < 1e-15:
                    continue
                p = parent[r]
                rotate(p, r, atan2(x, rows[p][c]))
        if rows[c][c] < 0:
            rotate(c, min(v for v in tree[c] if remaining[v]), pi)
        remaining[c] = False

    axes = np.array(planes, dtype=np.int64).reshape(-1, 2)[::-1]
    angles = wrap_angles(-wrap_angles(found)[::-1])
    keep = np.abs(angles) > 1e-15
    return axes[keep], angles[keep]
