import itertools
import re

import numpy as np
import pytest
import scipy.linalg

from dgsim import oracle

from helpers import (
    dense_product,
    exp_quadratic_reference,
    fswap,
    ghz4,
    held_arrays,
    is_even_reference,
    majorana_monomial,
    mask,
    parity_dense,
    pauli_product_tables,
    permutation_dense,
    phase_aligned_distance,
    quartic_unitary,
    rand_antisym,
    rand_bloch,
    rand_state,
    same_bits,
)
from dgsim import state as st_mod

rng = np.random.default_rng(77)


def test_majorana_anticommutation():
    n = 3
    gammas = [oracle.majorana(n, a) for a in range(2 * n)]
    for a, b in itertools.combinations_with_replacement(range(2 * n), 2):
        anti = gammas[a] @ gammas[b] + gammas[b] @ gammas[a]
        target = 2 * np.eye(8) if a == b else np.zeros((8, 8))
        assert np.max(np.abs(anti - target)) < 1e-12


def test_majorana_literal_form():
    X, Y, Z = oracle.PAULIS[1], oracle.PAULIS[2], oracle.PAULIS[3]
    assert np.allclose(oracle.majorana(2, 0), np.kron(X, np.eye(2)))
    assert np.allclose(oracle.majorana(2, 1), np.kron(Y, np.eye(2)))
    assert np.allclose(oracle.majorana(2, 2), np.kron(Z, X))
    assert np.allclose(oracle.majorana(2, 3), np.kron(Z, Y))


def test_monomial_string_matches_product():
    n = 2
    for J in [(0,), (0, 1), (1, 2, 3), (0, 1, 2, 3)]:
        direct = np.eye(4, dtype=complex)
        for j in J:
            direct = direct @ oracle.majorana(n, j)
        assert np.max(np.abs(majorana_monomial(n, J) - direct)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_table_matches_monomial_string(n):
    index, phase = oracle._monomial_table(n)
    strides = 4 ** np.arange(n - 1, -1, -1)
    for mask in range(1 << (2 * n)):
        J = [a for a in range(2 * n) if mask >> a & 1]
        ph, codes = oracle.monomial_string(n, J)
        assert index[mask] == int(np.array(codes) @ strides)
        assert phase[mask] == ph


def test_pauli_tensor_roundtrip():
    A = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    C = oracle.pauli_tensor(A)
    assert np.max(np.abs(oracle.from_pauli_tensor(C) - A)) < 1e-10


def test_moments_of_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00>
    values = oracle.moments(rho)
    # i g0 g1 = -Z so <g0 g1> = i<Z>... entry convention fixed by Z moment
    assert values[mask((0, 1))] == pytest.approx(-1j, abs=1e-12)
    assert values[mask(())] == pytest.approx(1.0)


def test_gaussian_dense_of_diagonal():
    lam = [0.6, -0.3]
    s = st_mod.from_diagonal(lam)
    rho = oracle.gaussian_dense(s.M_ext)
    Z = oracle.PAULIS[3]
    direct = np.kron((np.eye(2) + lam[0] * Z) / 2, (np.eye(2) + lam[1] * Z) / 2)
    assert np.max(np.abs(rho - direct)) < 1e-12


def test_covariance_from_dense_roundtrip():
    s = rand_state(rng, 2)
    rho = oracle.gaussian_dense(s.M_ext)
    assert np.max(np.abs(oracle.covariance_from_dense(rho) - s.M_ext)) < 1e-10


def test_is_gaussian_labels():
    s = rand_state(rng, 2)
    verdict, dev = oracle.is_gaussian(oracle.gaussian_dense(s.M_ext))
    assert verdict and dev < 1e-10
    verdict, dev = oracle.is_gaussian(ghz4())
    assert not verdict and dev > 1e-3


def test_is_gaussian_reads_moments_once(monkeypatch):
    # The carrier and the deviation come from one moment array.
    calls = []
    real = oracle.moments
    monkeypatch.setattr(oracle, "moments", lambda A: calls.append(A) or real(A))
    s = rand_state(rng, 3)
    for A in (oracle.gaussian_dense(s.M_ext), ghz4()):
        calls.clear()
        oracle.is_gaussian(A)
        assert len(calls) == 1


def test_is_even():
    assert oracle.is_even(ghz4())
    s = rand_state(rng, 2)
    assert not oracle.is_even(oracle.gaussian_dense(s.M_ext))


def test_exp_quadratic_unitary():
    n = 2
    h = rng.normal(size=(4, 4))
    h = (h - h.T) / 2
    U = oracle.exp_quadratic(n, h, rng.normal(size=4))
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) < 1e-10


def test_fswap_swaps_even_second_line():
    # |psi> x |0> -> |0> x |psi> up to phase; definite-parity partner
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    zero = np.array([1, 0], dtype=complex)
    S = fswap(2, 0, 1)
    out = S @ np.kron(psi, zero)
    target = np.kron(zero, psi)
    phase = target.conj() @ out
    assert abs(abs(phase) - 1) < 1e-10
    assert np.max(np.abs(out - phase * target)) < 1e-10


def test_fswap_majorana_conjugation():
    # S g_{2a+s} S+ = +- g_{2b+s}: subspace exchange at the rotation level
    n, a, b = 2, 0, 1
    S = fswap(n, a, b)
    for s in (0, 1):
        g = S @ oracle.majorana(n, 2 * a + s) @ S.conj().T
        assert (
            np.max(np.abs(g - oracle.majorana(n, 2 * b + s))) < 1e-10
            or np.max(np.abs(g + oracle.majorana(n, 2 * b + s))) < 1e-10
        )


def test_fswap_not_a_swap_for_mixed_partner():
    # crossing a parity-mixed line damps transverse displacement
    X, Z = oracle.PAULIS[1], oracle.PAULIS[3]
    rho = np.kron((np.eye(2) + 0.6 * X) / 2, (np.eye(2) + 0.5 * Z) / 2)
    S = fswap(2, 0, 1)
    swapped = np.kron((np.eye(2) + 0.5 * Z) / 2, (np.eye(2) + 0.6 * X) / 2)
    assert np.max(np.abs(S @ rho @ S.conj().T - swapped)) > 0.1


def test_embed_V_conjugation():
    n = 2
    V = oracle.embed_V(n)
    gL = oracle.majorana(n + 1, 2 * n + 1)
    for j in range(2 * n + 1):
        g = oracle.majorana(n + 1, j)
        lhs = V @ g @ V.conj().T
        rhs = 1j * g @ gL
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    assert np.max(np.abs(V @ gL @ V.conj().T - gL)) < 1e-10


def test_max_entangled_properties():
    rho = oracle.max_entangled(2)
    oracle.check_state(rho)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-8)
    assert oracle.is_even(rho)
    verdict, _ = oracle.is_gaussian(rho)
    assert verdict


def test_convolution_preserves_gaussian():
    a, b = rand_state(rng, 2, scale=0.0), rand_state(rng, 2, scale=0.0)
    conv = oracle.fermionic_convolution(
        oracle.gaussian_dense(a.M_ext), oracle.gaussian_dense(b.M_ext)
    )
    oracle.check_state(conv)
    verdict, _ = oracle.is_gaussian(conv)
    assert verdict


def test_quartic_unitary_choi_not_gaussian():
    U = quartic_unitary()
    rho_E = oracle.max_entangled(2)
    W = np.kron(U, np.eye(4))
    verdict, dev = oracle.is_gaussian(W @ rho_E @ W.conj().T)
    assert not verdict and dev > 1e-3


def test_born_probability_product():
    blochs = [rand_bloch(rng) for _ in range(3)]
    rho = dense_product(blochs)
    for line in range(3):
        p0 = oracle.born_probability(rho, [line], [0])
        assert p0 == pytest.approx((1 + blochs[line][2]) / 2, abs=1e-12)


@pytest.mark.parametrize("K, x", [([0.7], [0]), ([True], [0]), ([0], [0.4]), ([0], [True])])
def test_born_probability_refuses_non_integers(K, x):
    # int() would truncate 0.7 and 0.4 to 0 and take True as 1.
    rho = st_mod.dense(st_mod.from_diagonal([0.5, 0.2]))
    with pytest.raises(ValueError, match="must be an integer"):
        oracle.born_probability(rho, K, x)


def test_born_probability_takes_numpy_integers():
    rho = st_mod.dense(st_mod.from_diagonal([0.5, 0.2]))
    got = oracle.born_probability(rho, [np.int64(1)], [np.uint8(1)])
    assert got == oracle.born_probability(rho, [1], [1])


@pytest.mark.parametrize("bit", [2, -1])
def test_born_probability_refuses_bits_outside_0_1(bit):
    # A bit of 2 matched no basis state and gave probability 0.
    rho = st_mod.dense(st_mod.from_diagonal([0.5, 0.2]))
    with pytest.raises(ValueError, match="outcome bits must be 0 or 1"):
        oracle.born_probability(rho, [0], [bit])


def test_oracle_cap():
    with pytest.raises(oracle.OracleCapError):
        oracle.majorana(2 * oracle.ORACLE_MAX_PAIRED + 1, 0)
    with pytest.raises(oracle.OracleCapError):
        oracle.max_entangled(oracle.ORACLE_MAX_PAIRED + 1)


# The tables held per process: their builder, the public call that reads
# one, and every size that call allows (moments has no cap: sizes up to the
# 8 lines of the CLI's Choi states).
HELD = {
    "_monomial_table": (oracle._monomial_table, oracle._monomial_table, range(1, 2 * oracle.ORACLE_MAX_PAIRED + 1)),
    "max_entangled": (oracle._max_entangled, oracle.max_entangled, range(1, oracle.ORACLE_MAX_PAIRED + 1)),
    "embed_V": (oracle._embed_V, oracle.embed_V, range(2 * oracle.ORACLE_MAX_PAIRED)),
}


@pytest.mark.parametrize("name", HELD)
def test_held_table_equals_a_fresh_build(name):
    build, call, sizes = HELD[name]
    for n in sizes:
        held = call(n)
        assert call(n) is held
        build.cache_clear()
        fresh = call(n)
        assert build.cache_info().misses == 1 and same_bits(held, fresh), n
    build.cache_clear()


@pytest.mark.parametrize("name", HELD)
def test_held_table_refuses_writes(name):
    _, call, sizes = HELD[name]
    for x in held_arrays(call(sizes[-1])):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0


@pytest.mark.parametrize("name", HELD)
def test_held_tables_stay_within_their_bound(name):
    # One size more than the bound; a size past the cap is refused and held by none.
    build, call, _ = HELD[name]
    build.cache_clear()
    for n in range(build.cache_info().maxsize + 1):
        try:
            call(n + 1)
        except oracle.OracleCapError:
            pass
        assert build.cache_info().currsize <= build.cache_info().maxsize


@pytest.mark.parametrize("call, n", [(oracle.max_entangled, oracle.ORACLE_MAX_PAIRED + 1),
                                     (oracle.embed_V, 2 * oracle.ORACLE_MAX_PAIRED)])
def test_held_tables_refuse_on_every_call(call, n):
    for _ in range(2):
        with pytest.raises(oracle.OracleCapError, match="^dense oracle capped at"):
            call(n)
    for bad in (2.0, True, np.float64(2.0)):
        message = f"^{re.escape(f'qubit count must be an integer, got {bad!r}')}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
        call(2)
        with pytest.raises(ValueError, match=message):
            call(bad)


def test_held_tables_take_numpy_sizes():
    assert oracle.max_entangled(np.int64(2)) is oracle.max_entangled(2)
    assert oracle.embed_V(np.uint8(3)) is oracle.embed_V(3)


def test_phase_aligned_distance():
    U = oracle.exp_quadratic(1, np.array([[0.0, 0.3], [-0.3, 0.0]]), np.zeros(2))
    assert phase_aligned_distance(U, np.exp(0.7j) * U) < 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_embed_V_is_the_exponential(n):
    want = scipy.linalg.expm(-1j * (np.pi / 4) * oracle.majorana(n + 1, 2 * n + 1))
    assert np.max(np.abs(oracle.embed_V(n) - want)) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_monomial_permutation_is_the_monomial(n):
    for mask in range(1 << (2 * n)):
        J = tuple(a for a in range(2 * n) if mask >> a & 1)
        perm, d = oracle.monomial_permutation(n, J)
        assert np.array_equal(permutation_dense(perm, d), majorana_monomial(n, J)), J


def test_fswap_permutation_is_the_exponential():
    # The four-term generator of the adjacent swap, exponentiated densely.
    for n in (2, 3, 4):
        for a in range(n - 1):
            h = np.zeros((2 * n, 2 * n))
            p, q, r, s = range(2 * a, 2 * a + 4)
            for (j, k), c in (((p, s), np.pi / 4), ((q, r), -np.pi / 4),
                              ((p, q), -np.pi / 4), ((r, s), -np.pi / 4)):
                h[j, k], h[k, j] = c, -c
            want = oracle.exp_quadratic(n, h, np.zeros(2 * n))
            got = permutation_dense(*oracle.fswap_permutation(n, a))
            assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("bad", [True, 0.5, np.float64(1.0)])
def test_operator_builders_follow_the_index_rule(bad):
    builders = [lambda: oracle.majorana(2, bad), lambda: oracle.monomial_string(2, (bad,)),
                lambda: oracle.monomial_permutation(2, (bad,)), lambda: oracle.fswap_permutation(3, bad)]
    for build in builders:
        with pytest.raises(ValueError, match="must be an integer"):
            build()


def test_operator_builders_take_numpy_integers():
    assert np.array_equal(oracle.majorana(2, np.int64(1)), oracle.majorana(2, 1))
    for got, want in zip(oracle.fswap_permutation(3, np.int64(1)), oracle.fswap_permutation(3, 1)):
        assert np.array_equal(got, want)


# The exact operators are built by index arithmetic; each is pinned here to its
# dense construction: Kronecker products of 2x2 Paulis and their matrix products.

def test_pauli_tables_are_their_trace_definition():
    # Bit for bit, the signs of zero parts included: -i has a +0 real part.
    assert same_bits((oracle._MUL_CODE, oracle._MUL_PHASE), pauli_product_tables())


@pytest.mark.parametrize("n", range(1, 2 * oracle.ORACLE_MAX_PAIRED + 1))
def test_majorana_is_the_kronecker_product(n):
    for a in range(2 * n):
        assert np.array_equal(oracle.majorana(n, a), majorana_monomial(n, (a,))), a


@pytest.mark.parametrize("n", range(2 * oracle.ORACLE_MAX_PAIRED))
def test_embed_V_is_its_closed_form_bit_for_bit(n):
    want = np.cos(np.pi / 4) * np.eye(2 << n) - 1j * np.sin(np.pi / 4) * majorana_monomial(n + 1, (2 * n + 1,))
    assert same_bits(oracle.embed_V(n), want)


@pytest.mark.parametrize("n, sparse, displaced",
                         [(n, sparse, displaced) for n in range(1, 5) for sparse in (False, True)
                          for displaced in (False, True)] + [(6, False, True)])
def test_exp_quadratic_is_the_sum_of_dense_products(n, sparse, displaced):
    gen = np.random.default_rng([n, sparse, displaced])
    for _ in range(5):
        h = rand_antisym(gen, 2 * n)
        if sparse:
            h *= np.triu(gen.random((2 * n, 2 * n)) < 0.4, 1)
            h -= h.T
        d = gen.normal(size=2 * n) * (gen.random(2 * n) < 0.5) if displaced else np.zeros(2 * n)
        assert same_bits(oracle.exp_quadratic(n, h, d), exp_quadratic_reference(n, h, d))


@pytest.mark.parametrize("n", range(1, oracle.ORACLE_MAX_QUBITS + 1))
def test_is_even_matches_dense_products_near_its_tolerance(n):
    # The odd part is scaled to f times the tolerance, on both sides of 1.
    gen = np.random.default_rng(300 + n)
    P = parity_dense(n)
    for scale in (0.1, 1.0, 1e5):
        A = scale * (gen.normal(size=(1 << n, 1 << n)) + 1j * gen.normal(size=(1 << n, 1 << n)))
        even, odd = (A + P @ A @ P) / 2, (A - P @ A @ P) / 2
        for f in (0.0, 0.5, 0.999999, 1.000001, 2.0):
            eps = f * oracle.PARITY_TOL * max(1.0, np.abs(even).max()) / (2 * np.abs(odd).max())
            B = even + eps * odd
            assert oracle.is_even(B) == is_even_reference(B) == (f < 1), (scale, f)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_is_even_refuses_non_finite_operators(bad):
    # An even entry (0, 0) and an odd one (0, 1), in an even operator otherwise.
    for n in (1, 2, 3):
        for y, x in ((0, 0), (0, 1), (1, 1), (1, 0)):
            A = np.eye(1 << n, dtype=complex)
            A[y, x] = bad
            with np.errstate(invalid="ignore"):
                assert not oracle.is_even(A), (n, y, x)
