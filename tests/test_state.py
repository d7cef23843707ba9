import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg

from dgsim import antisym, oracle, simulator as sim, state as st_mod, unitary as un_mod

from helpers import (gather_fold, is_exit_of, mask, rand_antisym, rand_pure_state, rand_sequence, rand_state, rand_unitary,
                     state_from_dense)

rng = np.random.default_rng(404)


def test_from_diagonal_basic():
    s = st_mod.from_diagonal([1.0, -1.0])
    assert s.M[0, 1] == pytest.approx(-1.0)
    assert s.M[2, 3] == pytest.approx(1.0)
    rho = oracle.gaussian_dense(s.M_ext)
    direct = np.zeros((4, 4), dtype=complex)
    direct[1, 1] = 1.0  # |01>
    assert np.max(np.abs(rho - direct)) < 1e-12


def test_sizes_are_stored_as_ints():
    # A size follows the one integer rule (antisym.as_index); n = 0 stays allowed.
    for n in (1, np.int64(1)):
        assert type(st_mod.DGaussState(n, np.zeros((2, 2)), np.zeros(2)).n) is int
        assert type(un_mod.DGUnitary.identity(n).n) is int
        assert type(un_mod.GateSequence(n, ()).n) is int
    assert un_mod.GateSequence(0, ()).n == 0


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
            values = oracle.moments(oracle.gaussian_dense(s.M_ext))
            for size in range(1, 2 * n + 1):
                for J in itertools.combinations(range(2 * n), size):
                    want = values[mask(J)]
                    got = st_mod.wick_moment(s, J)
                    assert abs(got - want) < 1e-8, (n, J)


@pytest.mark.parametrize("bad", [0.7, True])
def test_wick_moment_refuses_non_integer_indices(bad):
    # int() would truncate 0.7 to 0 and take True as 1.
    s = st_mod.from_diagonal([0.5, 0.2])
    with pytest.raises(ValueError, match="must be an integer"):
        st_mod.wick_moment(s, (bad, 2))


def test_wick_moment_takes_numpy_integers():
    s = st_mod.from_diagonal([0.5, 0.2])
    assert st_mod.wick_moment(s, (np.int64(0), np.int64(1))) == st_mod.wick_moment(s, (0, 1))


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
        s2 = state_from_dense(st_mod.dense(s))
        assert np.max(np.abs(s.M - s2.M)) < 1e-9
        assert np.max(np.abs(s.mu - s2.mu)) < 1e-9


def test_canonical_lambdas_padded():
    s = st_mod.from_diagonal([0.7, 0.0, 0.2])
    lam = s.canonical_lambdas()
    assert len(lam) == 3
    assert sorted(lam, reverse=True) == pytest.approx([0.7, 0.2, 0.0], abs=1e-10)


def _kernel_rich(rng, m):
    """Random rotation of a carrier whose canonical values are half zeros, half in (0, 1]."""
    lams = rng.uniform(0.1, 1.0, size=m // 2)
    lams[rng.permutation(m // 2)[: m // 4]] = 0.0
    R = scipy.linalg.expm(rand_antisym(rng, m))
    M = R @ antisym.canonical_matrix(lams, m) @ R.T
    return (M - M.T) / 2


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9, 13, 17, 33, 49, 65, 101, 151, 201])
def test_canonical_values_match_block_diagonalize(m):
    # The values read from eigvalsh alone are the canonical form's lambdas.
    n = m // 2
    r = np.random.default_rng(m)
    carriers = [_kernel_rich(r, m)]
    if n:
        carriers += [rand_state(r, n).M_ext, rand_pure_state(r, n).M_ext]
    for M_ext in carriers:
        _, want = antisym.block_diagonalize(M_ext)
        valid, got = st_mod.validate(M_ext)
        scale = max(1.0, float(np.abs(M_ext).max()))
        assert valid and len(got) == len(want) and got == sorted(got, reverse=True)
        assert np.max(np.abs(np.subtract(got, want)), initial=0.0) <= 1e-12 * scale
        if n:
            padded = st_mod.DGaussState(n, M_ext[:-1, :-1], M_ext[:-1, -1]).canonical_lambdas()
            assert padded == got + [0.0] * (n - len(got))


@pytest.mark.parametrize("n", [1, 4])
def test_admissibility_boundary(n):
    # Canonical values up to 1 + ADMISSIBILITY_TOL pass; beyond it they are
    # refused, in every input form: covariance, lambdas and Bloch vectors.
    R = scipy.linalg.expm(rand_antisym(rng, 2 * n + 1))
    for lam, ok in ((1 + 5e-10, True), (1 + 2e-9, False)):
        M_ext = R @ antisym.canonical_matrix([lam] + [0.5] * (n - 1), 2 * n + 1) @ R.T
        M_ext = (M_ext - M_ext.T) / 2
        assert st_mod.validate(M_ext)[0] is ok
        lambdas = [0.5] * (n - 1) + [-lam]
        blochs = [[0.0, 0.0, 0.5]] * (n - 1) + [[0.0, 0.0, lam]]
        if ok:
            st_mod.DGaussState(n, M_ext[:-1, :-1], M_ext[:-1, -1])
            st_mod.from_diagonal(lambdas)
            sim.prepare_product(blochs)
        else:
            with pytest.raises(st_mod.AdmissibilityError, match=r"canonical values exceed 1: \[1\.00000000"):
                st_mod.DGaussState(n, M_ext[:-1, :-1], M_ext[:-1, -1])
            with pytest.raises(st_mod.AdmissibilityError, match="diagonal parameters"):
                st_mod.from_diagonal(lambdas)
            with pytest.raises(st_mod.AdmissibilityError, match="Bloch vector"):
                sim.prepare_product(blochs)


def test_validate_checks_shape_before_the_spectrum():
    with pytest.raises(ValueError, match="odd dimension"):
        st_mod.validate(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="not antisymmetric"):
        st_mod.validate(np.eye(3))
    with pytest.raises(antisym.DimensionError):
        st_mod.validate(np.zeros((3, 2)))


def test_is_even():
    assert st_mod.from_diagonal([0.5, 0.1]).is_even
    s = rand_state(rng, 2, scale=0.5)
    assert not s.is_even


# ---------------------------------------------------------------------------
# A checked state copies its data; an unchecked one leaves through
# carrier_state, exactly antisymmetric.

def test_checked_state_keeps_its_data():
    M, mu = np.zeros((2, 2)), np.zeros(2)
    s = st_mod.DGaussState(1, M, mu)
    M[0, 1], M[1, 0] = -3, 3
    mu[0] = 2
    assert s.canonical_lambdas() == [0.0] and not s.mu.any()


def test_state_fields_are_its_data():
    assert [f.name for f in dataclasses.fields(st_mod.DGaussState)] == ["n", "M", "mu"]


# Signed zeros: lambda = 0 puts -0 above the diagonal, lambda = -0 puts it
# below; a z < 0 line with no transverse part puts -0 in the later means.
LAMBDAS = [0.0, -0.0, 1.0, -1.0, 0.3]
SHORT = [[0.0, 0.0, -1.0], [0.6, 0.8, 0.0], [0.0, 0.0, -0.5], [0.0, 0.0, 1.0]]
LONG = [[0.0, 0.0, -(1 + st_mod.ADMISSIBILITY_TOL / 2)], [0.0, 0.0, -0.5], [0.0, 0.0, 0.25]]


def held_bits(s):
    return s.M.tobytes(), s.mu.tobytes()


def test_built_states_hold_their_formulas_bits():
    n = len(LAMBDAS)
    d = st_mod.from_diagonal(LAMBDAS)
    assert d.n == n and held_bits(d) == (antisym.canonical_matrix(-np.array(LAMBDAS), 2 * n).tobytes(),
                                         np.zeros(2 * n).tobytes())
    assert np.signbit(d.M[0, 1]) and not np.signbit(d.M[1, 0]) and np.signbit(d.M[3, 2])
    for blochs, checked in ((SHORT, False), (LONG, True)):
        s = sim.prepare_product(blochs)
        assert held_bits(s) == tuple(x.tobytes() for x in sim.product_covariance(np.array(blochs)))
        assert np.signbit(s.mu[2:]).any()
        # The checked branch keeps views of its bordered carrier; the other holds the arrays computed.
        assert (s.M.base is not None and s.M.base is s.mu.base) == checked


@pytest.mark.parametrize("source", [LAMBDAS, SHORT, LONG], ids=["lambdas", "short", "long"])
def test_run_output_holds_the_fold_bits(source):
    state = source if source is LAMBDAS else sim.prepare_product(source)
    for count in (0, 7):
        c = sim.Circuit(state, rand_sequence(np.random.default_rng(count), len(source), count))
        s = sim.run(c)
        assert is_exit_of(s, gather_fold(c)) and s.M.base is s.mu.base


@pytest.mark.parametrize("block", [4, st_mod.SYMMETRIZE_BLOCK])
@pytest.mark.parametrize("size", [1, 3, 9, 11, 301])
def test_carrier_state_symmetrizes_in_place(monkeypatch, block, size):
    monkeypatch.setattr(st_mod, "SYMMETRIZE_BLOCK", block)
    E = np.random.default_rng(size).normal(size=(size, size))
    raw = E.copy()
    s = st_mod.carrier_state(E)
    assert s.n == size // 2 and is_exit_of(s, raw)
    assert s.M.base is E and s.mu.base is E


@pytest.mark.parametrize("n", [2, 5, 20])
def test_from_thermal_is_exactly_antisymmetric(n):
    h, d = rand_antisym(rng, 2 * n), rng.normal(size=2 * n) * 0.4
    raw = st_mod._odd_function(antisym.bordered(h, d), np.tanh)
    assert is_exit_of(st_mod.from_thermal(h, d), raw)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_thermal_routes_hold_real_exactly_antisymmetric_arrays(n):
    # from_thermal's carrier is a real array of its own, not the real part
    # of a complex one, with that real part's bits; to_thermal's (h, d) is
    # the symmetrized real part of its complex product, exactly antisymmetric.
    h, d = rand_antisym(rng, 2 * n), rng.normal(size=2 * n) * 0.4
    s = st_mod.from_thermal(h, d)
    side = 8 * (2 * n + 1)
    assert s.M.strides == (side, 8) and s.mu.strides == (side,)
    assert s.M.base.dtype == np.float64 and s.M.base.flags.c_contiguous

    def real_part(G, f):
        w, V = np.linalg.eigh(1j * G)
        return np.real(1j * (V * f(w)) @ V.conj().T)

    assert is_exit_of(s, real_part(antisym.bordered(h, d), np.tanh))
    h2, d2 = st_mod.to_thermal(s)
    assert np.array_equal(h2, -h2.T) and h2.strides == (side, 8)
    G = real_part(s.M_ext, np.arctanh)
    G = (G - G.T) / 2
    assert h2.tobytes() == G[:-1, :-1].tobytes() and d2.tobytes() == G[:-1, -1].tobytes()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_conjugate_state_is_exactly_antisymmetric(n):
    U, s = rand_unitary(rng, n), rand_state(rng, n)
    R = U.rotation()
    assert is_exit_of(un_mod.conjugate_state(U, s), R @ s.M_ext @ R.T)
