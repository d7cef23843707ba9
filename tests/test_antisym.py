import numpy as np
import pytest

from dgsim import antisym

from helpers import rand_antisym

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
                antisym.pfaffian_reference(M), abs=1e-8
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


def test_pfaffian_all_restrictions():
    M = rand_antisym(rng, 8)
    table = antisym.pfaffian_all_restrictions(M)
    for mask in (0b0011, 0b1111, 0b01010101, 0b11111111):
        J = [j for j in range(8) if mask >> j & 1]
        assert table[mask] == pytest.approx(
            antisym.pfaffian_reference(M[np.ix_(J, J)]), abs=1e-8
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


def test_expm_antisym_special_orthogonal():
    h = rand_antisym(rng, 5)
    R = antisym.expm_antisym(h)
    antisym.check_rotation(R)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-10)


def test_plane_rotation_normalizes_angle():
    pr = antisym.PlaneRotation((0, 1), 3 * np.pi)
    assert -np.pi < pr.angle <= np.pi
    assert pr.angle == pytest.approx(np.pi)


def test_plane_rotation_matrix_convention():
    R = antisym.plane_rotation_matrix(3, 0, 2, 0.3)
    assert R[0, 2] == pytest.approx(np.sin(0.3))
    assert R[2, 0] == pytest.approx(-np.sin(0.3))
    antisym.check_rotation(R)


def _chain_adjacency(j, k):
    return abs(j - k) == 1


@pytest.mark.parametrize("m", [3, 5, 7])
def test_plane_decompose_roundtrip_chain(m):
    for _ in range(3):
        R = antisym.expm_antisym(rand_antisym(rng, m))
        gates = antisym.plane_decompose(R, _chain_adjacency)
        acc = np.eye(m)
        for g in gates:
            acc = antisym.plane_rotation_matrix(m, *g.axes, g.angle) @ acc
        assert np.max(np.abs(acc - R)) < 1e-8
        for g in gates:
            assert _chain_adjacency(*g.axes)


def test_plane_decompose_star_adjacency():
    m = 7
    R = antisym.expm_antisym(rand_antisym(rng, m))
    gates = antisym.plane_decompose(R, lambda j, k: 0 in (j, k))
    acc = np.eye(m)
    for g in gates:
        acc = antisym.plane_rotation_matrix(m, *g.axes, g.angle) @ acc
    assert np.max(np.abs(acc - R)) < 1e-8


def test_plane_decompose_count_bound():
    m = 9
    R = antisym.expm_antisym(rand_antisym(rng, m))
    gates = antisym.plane_decompose(R, _chain_adjacency)
    assert len(gates) <= m * m


def test_plane_decompose_disconnected_adjacency_fails():
    R = antisym.expm_antisym(rand_antisym(rng, 4))
    with pytest.raises(antisym.DecompositionError):
        antisym.plane_decompose(R, lambda j, k: (j, k) == (0, 1))
