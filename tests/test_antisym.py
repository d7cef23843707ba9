import numpy as np
import pytest

from dgsim import antisym, oracle, simulator as sim, state as st_mod, unitary as un_mod

from helpers import pfaffian_reference, plane_decompose_reference, plane_rotation_matrix, rand_antisym

rng = np.random.default_rng(1234)


def test_check_antisymmetric_rejects():
    with pytest.raises(antisym.DimensionError):
        antisym.check_antisymmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        antisym.check_antisymmetric(np.eye(2))


def test_bordered_layout():
    A = rand_antisym(rng, 4)
    v = rng.normal(size=4)
    B = antisym.bordered(A, v)
    assert B.dtype == float and B.shape == (5, 5)
    assert np.array_equal(B[:4, :4], A)
    assert np.array_equal(B[:4, 4], v) and np.array_equal(B[4, :4], -v)
    assert B[4, 4] == 0.0
    B[0, 0] = 7.0  # a new array: the input is untouched
    assert A[0, 0] == 0.0
    assert np.array_equal(antisym.bordered(np.zeros((0, 0)), []), np.zeros((1, 1)))


def test_bordered_rejects_shape_mismatch():
    for A, v in ((np.zeros((3, 3)), np.zeros(2)), (np.zeros((2, 3)), np.zeros(2)),
                 (np.zeros((2, 2)), np.zeros((2, 1))), (np.zeros((2, 2)), 0.0)):
        with pytest.raises(antisym.DimensionError):
            antisym.bordered(A, v)


def test_pfaffian_matches_reference():
    for m in (0, 2, 4, 6, 8):
        for _ in range(5):
            M = rand_antisym(rng, m)
            assert antisym.pfaffian(M) == pytest.approx(
                pfaffian_reference(M), abs=1e-8
            )


def test_pfaffian_squares_to_determinant():
    for m in (2, 4, 6, 10):
        M = rand_antisym(rng, m)
        assert antisym.pfaffian(M) ** 2 == pytest.approx(np.linalg.det(M), rel=1e-8)


def test_pfaffian_restricted():
    M = rand_antisym(rng, 6)
    J = [0, 1, 2, 5]
    assert antisym.pfaffian_restricted(M, J) == pytest.approx(
        antisym.pfaffian(M[np.ix_(J, J)]), abs=1e-10
    )
    assert antisym.pfaffian_restricted(M, []) == 1.0
    with pytest.raises(IndexError):
        antisym.pfaffian_restricted(M, [2, 0, 1, 5])


@pytest.mark.parametrize("bad", [0.7, True])
def test_pfaffian_restricted_refuses_non_integer_indices(bad):
    # int() would truncate 0.7 to 0 and take True as 1.
    M = rand_antisym(rng, 4)
    with pytest.raises(ValueError, match="must be an integer"):
        antisym.pfaffian_restricted(M, (bad, 2))


def test_pfaffian_restricted_takes_numpy_integers():
    M = rand_antisym(rng, 4)
    assert antisym.pfaffian_restricted(M, (np.int64(1), np.int64(3))) == M[1, 3]


# Every library function that takes lines or Majorana indices, with the
# range bound m of its indices, on a 2-line state s.
INDEX_RULE_USERS = {
    "expectation": (2, lambda s, J: sim.expectation(s, sim.MeasurementOp(J, (0,) * len(J)))),
    "sample": (2, lambda s, J: sim.sample(s, J, 2, 0)),
    "pfaffian_restricted": (4, lambda s, J: antisym.pfaffian_restricted(s.M, J)),
    "wick_moment": (4, lambda s, J: st_mod.wick_moment(s, J)),
    "conjugate_monomial": (4, lambda s, J: un_mod.conjugate_monomial(un_mod.DGUnitary.identity(2), J)),
    "born_probability": (2, lambda s, J: oracle.born_probability(st_mod.dense(s), J, (0,) * len(J))),
}


@pytest.mark.parametrize("user", sorted(INDEX_RULE_USERS))
@pytest.mark.parametrize("J, verdict", [
    ((1, 0), "order"),
    ((0, 0), "order"),
    ((-1,), "range"),
    ("m", "range"),
    ((0.5,), "must be an integer"),
    ((True,), "must be an integer"),
    ((np.int64(0), np.int64(1)), None),
])
def test_one_index_rule_at_every_entry_point(user, J, verdict):
    # Before the rule was shared, conjugate_monomial sorted (1, 0) and
    # (0, 0), and born_probability took (0, 0) as the line 0 twice.
    m, call = INDEX_RULE_USERS[user]
    J = (m,) if J == "m" else J
    s = st_mod.from_diagonal([0.5, 0.2])
    if verdict is None:
        call(s, J)
    elif verdict == "must be an integer":
        with pytest.raises(ValueError, match=verdict):
            call(s, J)
    else:
        with pytest.raises(antisym.IndexRuleError, match="strictly increasing" if verdict == "order"
                           else "out of range") as exc:
            call(s, J)
        assert isinstance(exc.value, ValueError) and isinstance(exc.value, IndexError)


def test_as_index_is_shared():
    # One index rule, importable from unitary as before.
    assert un_mod.as_index is antisym.as_index


def test_pfaffian_all_restrictions():
    M = rand_antisym(rng, 8)
    table = antisym.pfaffian_all_restrictions(M)
    for mask in (0b0011, 0b1111, 0b01010101, 0b11111111):
        J = [j for j in range(8) if mask >> j & 1]
        assert table[mask] == pytest.approx(
            pfaffian_reference(M[np.ix_(J, J)]), abs=1e-8
        )


@pytest.mark.parametrize("m", range(1, 10))
def test_pfaffian_all_restrictions_every_mask(m):
    cases = [rand_antisym(rng, m), rand_antisym(rng, m) + 1j * rand_antisym(rng, m)]
    for M in cases:
        table = antisym.pfaffian_all_restrictions(M)
        assert table.dtype == (complex if np.iscomplexobj(M) else float)
        for mask in range(1 << m):
            J = [j for j in range(m) if mask >> j & 1]
            if len(J) % 2:
                assert table[mask] == 0
            else:
                want = antisym.pfaffian_restricted(M, J)
                assert abs(table[mask] - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 7, 8])
def test_block_diagonalize_roundtrip(m):
    for _ in range(5):
        M = rand_antisym(rng, m)
        R, lambdas = antisym.block_diagonalize(M)
        antisym.check_rotation(R)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)
        C = antisym.canonical_matrix(lambdas, m)
        assert np.max(np.abs(R @ M @ R.T - C)) < 1e-9


def test_block_diagonalize_rank_deficient():
    M = np.zeros((6, 6))
    M[0, 1], M[1, 0] = 0.7, -0.7
    R, lambdas = antisym.block_diagonalize(M)
    assert lambdas == pytest.approx([0.7])
    C = antisym.canonical_matrix(lambdas, 6)
    assert np.max(np.abs(R @ M @ R.T - C)) < 1e-10


def test_block_diagonalize_degenerate_spectrum():
    M = antisym.canonical_matrix([0.5, 0.5, 0.5], 6)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    M = Q @ M @ Q.T
    M = (M - M.T) / 2
    R, lambdas = antisym.block_diagonalize(M)
    assert sorted(abs(v) for v in lambdas) == pytest.approx([0.5, 0.5, 0.5], abs=1e-9)
    C = antisym.canonical_matrix(lambdas, 6)
    assert np.max(np.abs(R @ M @ R.T - C)) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_rotation_rejects_non_finite(bad):
    # NaN compares False with every bound, so it must be refused by name.
    with pytest.raises(ValueError, match="non-finite"):
        antisym.check_rotation(np.full((3, 3), bad))
    R = np.eye(3)
    R[2, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        antisym.check_rotation(R)


# Every exit-3 class derives from NumericalAdmissibilityError and keeps
# its ValueError or RuntimeError base.
@pytest.mark.parametrize("cls, base", [
    (antisym.DecompositionError, RuntimeError),
    (antisym.NonFiniteError, ValueError),
    (st_mod.AdmissibilityError, ValueError),
    (st_mod.SaturationError, ValueError),
    (un_mod.LogBranchError, RuntimeError),
    (sim.NonGaussianProductError, st_mod.AdmissibilityError),
])
def test_exit_3_classes(cls, base):
    assert issubclass(cls, antisym.NumericalAdmissibilityError) and issubclass(cls, base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_refused_by_every_check(bad):
    M = np.array([[0.0, bad], [-bad, 0.0]])
    checks = [lambda: antisym.check_antisymmetric(M), lambda: antisym.check_rotation(M),
              lambda: st_mod.DGaussState(1, M, [0.0, 0.0]),
              lambda: st_mod.DGaussState(1, np.zeros((2, 2)), [bad, 0.0])]
    for check in checks:
        with pytest.raises(antisym.NonFiniteError, match="non-finite"):
            check()


def test_expm_antisym_special_orthogonal():
    h = rand_antisym(rng, 5)
    R = antisym.expm_antisym(h)
    antisym.check_rotation(R)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_wrap_angles_normalizes_angle():
    (a,) = antisym.wrap_angles([3 * np.pi])
    assert -np.pi < a <= np.pi
    assert a == pytest.approx(np.pi)


def test_plane_rotation_matrix_convention():
    R = plane_rotation_matrix(3, 0, 2, 0.3)
    assert R[0, 2] == pytest.approx(np.sin(0.3))
    assert R[2, 0] == pytest.approx(-np.sin(0.3))
    antisym.check_rotation(R)


def _chain_adjacency(m):
    i = np.arange(m)
    return np.abs(i[:, None] - i[None, :]) == 1


def _star_adjacency(m):
    allowed = np.zeros((m, m), dtype=bool)
    allowed[0] = allowed[:, 0] = True
    return allowed


def _product(m, axes, angles):
    acc = np.eye(m)
    for (j, k), a in zip(axes.tolist(), angles.tolist()):
        acc = plane_rotation_matrix(m, j, k, a) @ acc
    return acc


@pytest.mark.parametrize("m", [3, 5, 7])
def test_plane_decompose_roundtrip_chain(m):
    allowed = _chain_adjacency(m)
    for _ in range(3):
        R = antisym.expm_antisym(rand_antisym(rng, m))
        axes, angles = antisym.plane_decompose(R, allowed)
        assert np.max(np.abs(_product(m, axes, angles) - R)) < 1e-8
        assert allowed[axes[:, 0], axes[:, 1]].all()


def test_plane_decompose_star_adjacency():
    m = 7
    R = antisym.expm_antisym(rand_antisym(rng, m))
    axes, angles = antisym.plane_decompose(R, _star_adjacency(m))
    assert np.max(np.abs(_product(m, axes, angles) - R)) < 1e-8


def test_plane_decompose_count_bound():
    m = 9
    R = antisym.expm_antisym(rand_antisym(rng, m))
    axes, angles = antisym.plane_decompose(R, _chain_adjacency(m))
    assert len(axes) == len(angles) <= m * m


def test_plane_decompose_disconnected_adjacency_fails():
    R = antisym.expm_antisym(rand_antisym(rng, 4))
    allowed = np.zeros((4, 4), dtype=bool)
    allowed[0, 1] = True
    with pytest.raises(antisym.DecompositionError):
        antisym.plane_decompose(R, allowed)


def _haar_rotation(rng, m):
    Q, r = np.linalg.qr(rng.normal(size=(m, m)))
    Q = Q * np.sign(np.diag(r))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def _test_rotations(m):
    """Random and Haar rotations, the identity, exact zeros, negative diagonals."""
    r = np.random.default_rng(m)
    sparse = np.eye(m)
    sparse[np.ix_([0, m - 1], [0, m - 1])] = plane_rotation_matrix(2, 0, 1, 0.7)
    flip = np.eye(m)
    flip[0, 0] = flip[m - 1, m - 1] = -1.0
    return [antisym.expm_antisym(rand_antisym(r, m, scale=2.0)), _haar_rotation(r, m),
            np.eye(m), sparse, flip, flip @ _haar_rotation(r, m)]


ADJACENCIES = ([("chain", m, _chain_adjacency(m)) for m in (2, 5, 9)]
               + [("star", m, _star_adjacency(m)) for m in (3, 6)]
               + [("compile", 2 * n + 1, un_mod._compile_adjacency(n)) for n in range(1, 9)])


@pytest.mark.parametrize("name, m, allowed", ADJACENCIES,
                         ids=[f"{a[0]}-{a[1]}" for a in ADJACENCIES])
def test_plane_decompose_matches_reference(name, m, allowed):
    # The same planes, and the same angles bit for bit (signed zeros
    # included), as the per-rotation reference with its angle objects.
    for R in _test_rotations(m):
        axes, angles = antisym.plane_decompose(R, allowed)
        want = plane_decompose_reference(R, lambda j, k: bool(allowed[j, k]))
        assert axes.dtype == np.int64 and axes.shape == (len(want), 2)
        assert axes.tolist() == [list(g.axes) for g in want]
        assert angles.tobytes() == np.array([g.angle for g in want], dtype=float).tobytes()


def test_plane_decompose_sign_fix_and_skip_branches():
    # A negative diagonal needs pi rotations; exact zeros are skipped.
    m = 5
    flip = np.eye(m)
    flip[0, 0] = flip[m - 1, m - 1] = -1.0
    axes, angles = antisym.plane_decompose(flip, _chain_adjacency(m))
    assert len(axes) > 0 and np.allclose(np.abs(angles), np.pi)
    assert np.array_equal(_product(m, axes, angles).round(12), flip)
    axes, angles = antisym.plane_decompose(np.eye(m), _chain_adjacency(m))
    assert axes.shape == (0, 2) and angles.shape == (0,)


def test_plane_decompose_checks_its_input():
    with pytest.raises(ValueError, match="orthogonal"):
        antisym.plane_decompose(2 * np.eye(3), _chain_adjacency(3))
    with pytest.raises(antisym.DimensionError):
        antisym.plane_decompose(np.eye(3), _chain_adjacency(4))
