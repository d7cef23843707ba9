import numpy as np
import pytest

from dgsim import antisym, embedding as emb, oracle, state as st_mod, unitary as un_mod

from helpers import (
    dense_product,
    elementary_dense,
    embed_v_gates,
    ghz4,
    phase_aligned_distance,
    quartic_unitary,
    rand_antisym,
    rand_bloch,
    rand_pure_state,
    rand_state,
    rand_unitary,
)

rng = np.random.default_rng(31337)


def test_embed_covariance_matches_dense():
    for n in (1, 2, 3):
        for k in range(4):
            s = rand_state(rng, n) if k % 2 else rand_pure_state(rng, n)
            out = emb.embed_state(s)
            Sig = oracle.covariance_from_dense(emb.embed_dense(st_mod.dense(s)))
            assert np.max(np.abs(out.M - Sig[: 2 * n + 2, : 2 * n + 2])) < 1e-8
            assert np.max(np.abs(Sig[2 * n + 2])) < 1e-8  # embedded state is even
            assert out.is_even


def test_embed_state_pure_exact():
    for n in (1, 2, 3):
        s = rand_pure_state(rng, n)
        out = emb.embed_state(s)
        assert np.max(np.abs(st_mod.dense(out) - emb.embed_dense(st_mod.dense(s)))) < 1e-7
        assert st_mod.purity(out) == pytest.approx(st_mod.purity(s), abs=1e-8)
        res = emb.embed_covariance(s)
        assert np.hypot(np.linalg.norm(res.r), res.c) == pytest.approx(1.0, abs=1e-8)


def signed_sub_pfaffians(M_ext):
    """w_j = (-1)^j Pf(M_ext without row and column j), straight from the definition."""
    m = M_ext.shape[0]
    keep = [[k for k in range(m) if k != j] for j in range(m)]
    return np.array([(-1) ** j * antisym.pfaffian(M_ext[np.ix_(kj, kj)])
                     for j, kj in enumerate(keep)])


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_vector_is_signed_sub_pfaffians(n):
    lambdas = rng.uniform(-1, 1, size=n)
    lambdas[rng.integers(n)] = 0.0
    states = [rand_pure_state(rng, n), rand_state(rng, n), st_mod.from_diagonal(lambdas)]
    if n == 3:
        states.append(st_mod.from_diagonal([1.0, 0.0, 0.5]))
    for s in states:
        want = signed_sub_pfaffians(s.M_ext)
        assert np.max(np.abs(emb._kernel_vector(s.M_ext) - want)) < 1e-14
    assert np.max(np.abs(want)) < 1e-14  # rank-deficient carrier: zero vector


def test_embedded_state_is_checked():
    res = emb.embed_covariance(st_mod.from_diagonal([0.5]))
    out, want = res.state(), emb.embed_state(st_mod.from_diagonal([0.5]))
    assert out.n == want.n == 2
    assert np.array_equal(out.M, want.M) and np.array_equal(out.mu, want.mu)
    bad = emb.EmbeddingResult(sigma=3.0 * res.sigma, r=res.r, c=res.c)
    with pytest.raises(st_mod.AdmissibilityError):
        bad.state()


def test_embed_dense_channel_preserves_purity():
    for n in (1, 2, 3):
        s = rand_state(rng, n)
        rho = st_mod.dense(s)
        out = emb.embed_dense(rho)
        assert np.trace(out @ out).real == pytest.approx(st_mod.purity(s), abs=1e-10)


def test_embed_mixed_input_is_not_gaussian_densely():
    # the dense embedding of a mixed state fails Wick consistency, so
    # only its second moments are representable
    s = rand_state(rng, 2)
    verdict, dev = oracle.is_gaussian(emb.embed_dense(st_mod.dense(s)))
    assert not verdict and dev > 1e-3


def trace_distance(A, B):
    return 0.5 * np.abs(np.linalg.eigvalsh(A - B)).sum()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_state_is_the_channel_for_pure_inputs_only(n):
    # A pure input's embedding is E(rho) itself.  A mixed input's is the
    # even Gaussian state with E(rho)'s second moments, which E(rho), not
    # being Gaussian, is not: far in trace distance, equal in covariance.
    g = np.random.default_rng(1300 + n)
    pure = rand_pure_state(g, n)
    mixed = un_mod.conjugate_state(rand_unitary(g, n), st_mod.from_diagonal(g.uniform(-0.7, 0.7, n)))
    for s, far in ((pure, False), (mixed, True)):
        got, want = st_mod.dense(emb.embed_state(s)), emb.embed_dense(st_mod.dense(s))
        assert (trace_distance(got, want) > 0.1) if far else (trace_distance(got, want) < 1e-12)
        assert np.max(np.abs(oracle.covariance_from_dense(got) - oracle.covariance_from_dense(want))) < 1e-12
    assert st_mod.purity(mixed) < 0.7


def test_embed_even_specialization():
    s = rand_state(rng, 2, scale=0.0)
    out = emb.embed_state(s)
    m = 4
    assert np.max(np.abs(out.M[:m, :m] - s.M)) < 1e-12
    assert np.max(np.abs(out.M[:m, m:])) < 1e-10  # no coupling into the new qubit


def test_embed_unitary_compatibility():
    for n in (1, 2, 3):
        s = rand_state(rng, n)
        U = rand_unitary(rng, n)
        Ut = emb.embed_unitary(U)
        lhs = emb.embed_state(un_mod.conjugate_state(U, s))
        rhs = un_mod.conjugate_state(Ut, emb.embed_state(s))
        assert np.max(np.abs(lhs.M - rhs.M)) < 1e-8
        Vt = oracle.exp_quadratic(n + 1, Ut.h, np.zeros(2 * n + 2))
        Ud = U.dense()
        lhs_d = emb.embed_dense(Ud @ st_mod.dense(s) @ Ud.conj().T)
        rhs_d = Vt @ emb.embed_dense(st_mod.dense(s)) @ Vt.conj().T
        assert np.max(np.abs(lhs_d - rhs_d)) < 1e-8


def test_embed_unitary_even_padding():
    n = 2
    h = rand_antisym(rng, 2 * n)
    U = un_mod.DGUnitary.from_generator(n, h, np.zeros(2 * n))
    Ut = emb.embed_unitary(U)
    assert np.max(np.abs(Ut.h[: 2 * n, : 2 * n] - h)) < 1e-12
    assert np.max(np.abs(Ut.h[2 * n :, :])) < 1e-12


def test_embed_unitary_rotation_form():
    # A unitary held as a rotation only embeds through its generator.
    for n in (1, 2, 3):
        U = rand_unitary(rng, n, scale=0.3)
        Ur = un_mod.DGUnitary.from_rotation(n, U.rotation())
        got, want = emb.embed_unitary(Ur).rotation(), emb.embed_unitary(U).rotation()
        assert np.max(np.abs(got - want)) < 1e-10


def test_embed_unitary_dense_projective():
    for n in (1, 2):
        U = rand_unitary(rng, n)
        Ut = emb.embed_unitary(U)
        V = oracle.embed_V(n)
        W = V @ np.kron(U.dense(), np.eye(2)) @ V.conj().T
        Vt = oracle.exp_quadratic(n + 1, Ut.h, np.zeros(2 * n + 2))
        assert phase_aligned_distance(W, Vt) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embed_v_gates(n):
    gates = embed_v_gates(n)
    assert len(gates) == 2 * n + 3
    prod = elementary_dense(gates, n + 1)
    assert phase_aligned_distance(prod, oracle.embed_V(n)) < 1e-10


def test_embed_v_gates_shape():
    kinds = [g.name for g in embed_v_gates(3)]
    assert kinds == ["A", "CX", "CX", "CX", "S", "CX", "CX", "CX", "A_dg"]


def test_gaussian_state_test_basis():
    psi = np.zeros((8, 8), dtype=complex)
    psi[0, 0] = 1.0
    overlap, verdict = emb.gaussian_state_test(psi)
    assert verdict and overlap == pytest.approx(1.0, abs=1e-10)


def test_gaussian_state_test_compiled_gaussian():
    for n in (2, 3):
        h = rand_antisym(rng, 2 * n)
        U = un_mod.DGUnitary.from_generator(n, h, np.zeros(2 * n))
        psi = st_mod.dense(
            un_mod.conjugate_state(U, st_mod.from_diagonal([1.0] * n))
        )
        overlap, verdict = emb.gaussian_state_test(psi)
        assert verdict and overlap == pytest.approx(1.0, abs=1e-8)


def test_gaussian_state_test_ghz4():
    overlap, verdict = emb.gaussian_state_test(ghz4())
    assert not verdict
    assert overlap == pytest.approx(0.5625, abs=1e-8)  # frozen regression value


def test_gaussian_state_test_rejects_odd_or_mixed():
    with pytest.raises(ValueError):
        emb.gaussian_state_test(st_mod.dense(rand_state(rng, 2, scale=0.5)))
    with pytest.raises(ValueError):
        emb.gaussian_state_test(st_mod.dense(rand_state(rng, 2, scale=0.0)))


def test_gaussian_unitary_test():
    verdict, _ = emb.gaussian_unitary_test(np.eye(4, dtype=complex))
    assert verdict
    n = 2
    h = rand_antisym(rng, 2 * n)
    U = un_mod.DGUnitary.from_generator(n, h, np.zeros(2 * n))
    verdict, _ = emb.gaussian_unitary_test(U.dense())
    assert verdict
    verdict, dev = emb.gaussian_unitary_test(quartic_unitary())
    assert not verdict and dev > 1e-3
    with pytest.raises(ValueError):
        emb.gaussian_unitary_test(np.ones((4, 4), dtype=complex))


def test_displaced_state_test():
    verdict, _ = emb.displaced_state_test(st_mod.dense(rand_pure_state(rng, 2)))
    assert verdict
    verdict, _ = emb.displaced_state_test(st_mod.dense(rand_state(rng, 2)))
    assert verdict
    blochs = [rand_bloch(rng, pure=True) for _ in range(3)]
    verdict, _ = emb.displaced_state_test(dense_product(blochs))
    assert verdict
    verdict, dev = emb.displaced_state_test(ghz4())
    assert not verdict and dev > 1e-3


def test_displaced_unitary_test():
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    verdict, _ = emb.displaced_unitary_test(np.kron(H, np.eye(2)))
    assert verdict  # single-qubit gate on the initial line
    U = rand_unitary(rng, 2)
    verdict, _ = emb.displaced_unitary_test(U.dense())
    assert verdict
    cz = np.eye(8, dtype=complex)
    for b in range(8):
        if (b >> 2) & 1 and b & 1:
            cz[b, b] = -1
    verdict, dev = emb.displaced_unitary_test(cz)
    assert not verdict and dev > 1e-3  # non-adjacent CZ leaves the class


def test_displaced_unitary_test_cap_before_dense_work(monkeypatch):
    # The Choi-state test needs max_entangled(n + 1): n = 4 is refused
    # before the embedding unitary V or W is built.
    def never(*args):
        raise AssertionError("dense work past the cap")

    monkeypatch.setattr(oracle, "embed_V", never)
    n = emb.UNITARY_TEST_MAX_QUBITS + 1
    with pytest.raises(oracle.OracleCapError, match=f"^dense oracle capped at 3 qubits, got {n}$"):
        emb.displaced_unitary_test(np.eye(1 << n))
