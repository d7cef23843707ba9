import itertools

import numpy as np
import pytest

from dgsim import oracle, state as st_mod

from helpers import rand_antisym, rand_pure_state, rand_state

rng = np.random.default_rng(404)


def test_from_diagonal_basic():
    s = st_mod.from_diagonal([1.0, -1.0])
    assert s.M[0, 1] == pytest.approx(-1.0)
    assert s.M[2, 3] == pytest.approx(1.0)
    rho = oracle.gaussian_dense(s.M_ext)
    direct = np.zeros((4, 4), dtype=complex)
    direct[1, 1] = 1.0  # |01>
    assert np.max(np.abs(rho - direct)) < 1e-12


def test_from_diagonal_matches_loop():
    # Bit for bit, signed zeros included, as one canonical block per line.
    lams = [0.0, -0.0, 0.5, -1.0, 1.0]
    M = np.zeros((10, 10))
    for q, lam in enumerate(lams):
        M[2 * q, 2 * q + 1] = -lam
        M[2 * q + 1, 2 * q] = lam
    assert st_mod.from_diagonal(lams).M.tobytes() == M.tobytes()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(ValueError, match="must lie in"):
        st_mod.from_diagonal([bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        st_mod.DGaussState(1, [[0.0, bad], [-bad, 0.0]], [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        st_mod.DGaussState(1, np.zeros((2, 2)), [bad, 0.0])


def test_validate_rejects_inadmissible():
    M = np.array([[0.0, -1.5], [1.5, 0.0]])
    with pytest.raises(st_mod.AdmissibilityError):
        st_mod.DGaussState(1, M, np.zeros(2))


def test_validate_rejects_overlong_mean():
    with pytest.raises(st_mod.AdmissibilityError):
        st_mod.DGaussState(1, np.zeros((2, 2)), np.array([0.9, 0.9]))


def test_wick_moments_match_oracle():
    for n in (1, 2, 3):
        for _ in range(4):
            s = rand_state(rng, n)
            table = oracle.moments(oracle.gaussian_dense(s.M_ext))
            for size in range(1, 2 * n + 1):
                for J in itertools.combinations(range(2 * n), size):
                    want = table[J]
                    got = st_mod.wick_moment(s, J)
                    assert abs(got - want) < 1e-8, (n, J)


def test_purity_matches_dense():
    for n in (1, 2, 3):
        s = rand_state(rng, n)
        rho = oracle.gaussian_dense(s.M_ext)
        assert st_mod.purity(s) == pytest.approx(
            float(np.real(np.trace(rho @ rho))), abs=1e-10
        )
    s = rand_pure_state(rng, 2)
    assert st_mod.purity(s) == pytest.approx(1.0, abs=1e-8)


def test_thermal_dense_agreement():
    import scipy.linalg

    for n in (1, 2, 3):
        h = rand_antisym(rng, 2 * n)
        d = rng.normal(size=2 * n) * 0.4
        s = st_mod.from_thermal(h, d)
        H = np.zeros((1 << n, 1 << n), dtype=complex)
        for j in range(2 * n):
            for k in range(2 * n):
                H += (1j / 2) * h[j, k] * oracle.majorana(n, j) @ oracle.majorana(n, k)
            H += d[j] * oracle.majorana(n, j)
        rho = scipy.linalg.expm(-H)
        rho /= np.trace(rho)
        assert np.max(np.abs(st_mod.dense(s) - rho)) < 1e-8


def test_thermal_roundtrip():
    for n in (1, 2, 3):
        h = rand_antisym(rng, 2 * n)
        d = rng.normal(size=2 * n) * 0.4
        s = st_mod.from_thermal(h, d)
        h2, d2 = st_mod.to_thermal(s)
        s2 = st_mod.from_thermal(h2, d2)
        assert np.max(np.abs(s.M_ext - s2.M_ext)) < 1e-9


def test_to_thermal_saturation():
    s = st_mod.from_diagonal([1.0, 0.3])
    with pytest.raises(st_mod.SaturationError) as info:
        st_mod.to_thermal(s)
    assert info.value.modes  # the saturated mode list is reported


def test_dense_roundtrip():
    for n in (1, 2, 3):
        s = rand_state(rng, n)
        s2 = st_mod.from_dense(st_mod.dense(s))
        assert np.max(np.abs(s.M - s2.M)) < 1e-9
        assert np.max(np.abs(s.mu - s2.mu)) < 1e-9


def test_canonical_lambdas_padded():
    s = st_mod.from_diagonal([0.7, 0.0, 0.2])
    lam = s.canonical_lambdas()
    assert len(lam) == 3
    assert sorted(lam, reverse=True) == pytest.approx([0.7, 0.2, 0.0], abs=1e-10)


def test_is_even():
    assert st_mod.from_diagonal([0.5, 0.1]).is_even
    s = rand_state(rng, 2, scale=0.5)
    assert not s.is_even
