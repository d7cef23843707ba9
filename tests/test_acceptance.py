"""Acceptance gate: one test per top-level criterion, one printed line each.

Every test computes its verdict first, prints a single
``ACCEPTANCE <k> <name>: PASS|FAIL`` line with the headline numbers,
and only then asserts, so the printed record survives either way.
"""

import itertools
import time

import numpy as np
import scipy.linalg

from dgsim import antisym, embedding as emb, oracle, simulator, state as st_mod, unitary as un_mod

from helpers import (
    dense_product,
    elementary_dense,
    embed_v_gates,
    ghz4,
    mask,
    phase_aligned_distance,
    quartic_unitary,
    rand_antisym,
    rand_bloch,
    rand_pure_state,
    rand_sequence,
    rand_state,
    rand_unitary,
    sequence_dense,
)


def _verdict(k, name, ok, detail):
    print(f"ACCEPTANCE {k} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance criterion {k} ({name}) failed: {detail}"


def _all_index_sets(nmaj):
    for size in range(nmaj + 1):
        yield from itertools.combinations(range(nmaj), size)


def test_acceptance_1_wick_moments():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = 1 + trial % 3
        s = rand_state(rng, n) if trial % 2 else rand_pure_state(rng, n)
        values = oracle.moments(st_mod.dense(s))
        for J in _all_index_sets(2 * n):
            worst = max(worst, abs(st_mod.wick_moment(s, J) - values[mask(J)]))
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        "wick moments vs dense oracle",
        worst < 1e-8 and elapsed < 60,
        f"50 states n<=3, max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_covariance_conjugation():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n = 1 + trial % 3
        s = rand_state(rng, n, scale=0.5)
        U = rand_unitary(rng, n, scale=0.8)
        out = un_mod.conjugate_state(U, s)
        Ud = U.dense()
        want = oracle.covariance_from_dense(Ud @ st_mod.dense(s) @ Ud.conj().T)
        worst = max(worst, float(np.max(np.abs(out.M_ext - want))))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "covariance conjugation vs dense",
        worst < 1e-8 and elapsed < 60,
        f"50 pairs n<=3, max dev {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_3_measurement():
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()

    born_dev = 0.0
    for n in (1, 2, 3):
        s = rand_state(rng, n, scale=0.5)
        rho = st_mod.dense(s)
        for size in range(1, n + 1):
            for K in itertools.combinations(range(n), size):
                for xv in range(1 << size):
                    x = tuple((xv >> (size - 1 - i)) & 1 for i in range(size))
                    p = simulator.expectation(s, simulator.MeasurementOp(K, x))
                    born_dev = max(born_dev, abs(p - oracle.born_probability(rho, K, x)))

    n_big = 12
    s_big = rand_state(rng, n_big, scale=0.3)
    total = 0.0
    K = tuple(range(n_big))
    for xv in range(1 << n_big):
        x = tuple((xv >> (n_big - 1 - i)) & 1 for i in range(n_big))
        total += simulator.expectation(s_big, simulator.MeasurementOp(K, x))
    completeness_dev = abs(total - 1.0)

    n = 3
    s = rand_state(rng, n, scale=0.5)
    rho = st_mod.dense(s)
    shots = 100_000
    outcomes = simulator.sample(s, tuple(range(n)), shots, seed=42)
    counts = {}
    for row in outcomes.tolist():
        bits = "".join(map(str, row))
        counts[bits] = counts.get(bits, 0) + 1
    tv = 0.0
    for xv in range(1 << n):
        bits = format(xv, f"0{n}b")
        x = tuple(int(b) for b in bits)
        tv += abs(counts.get(bits, 0) / shots - oracle.born_probability(rho, range(n), x))
    tv /= 2

    elapsed = time.perf_counter() - t0
    ok = born_dev < 1e-8 and completeness_dev < 1e-9 and tv < 0.01 and elapsed < 180
    _verdict(
        3,
        "measurement probabilities and sampling",
        ok,
        f"born dev {born_dev:.2e}, n=12 completeness dev {completeness_dev:.2e}, "
        f"TV {tv:.4f} at 1e5 shots, {elapsed:.1f}s",
    )


def test_acceptance_4_compiler():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    worst_res = 0.0
    constant = 0.0
    dense_dev = 0.0
    for n in range(2, 9):
        m = 2 * n + 1
        R = scipy.linalg.expm(rand_antisym(rng, m))
        seq = un_mod.compile(un_mod.DGUnitary.from_rotation(n, R))
        worst_res = max(worst_res, float(np.max(np.abs(un_mod.sequence_rotation(seq) - R))))
        constant = max(constant, len(seq) / n**3)
        if n <= 3:
            U = un_mod.DGUnitary.from_rotation(n, R)
            dense_dev = max(
                dense_dev,
                phase_aligned_distance(sequence_dense(seq), U.dense()),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_res < 1e-7 and dense_dev < 1e-7 and elapsed < 120
    _verdict(
        4,
        "compiler SO(2n+1) sweep n=2..8",
        ok,
        f"max residual {worst_res:.2e}, count <= {constant:.2f}*n^3, "
        f"dense projective dev {dense_dev:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_5_three_way_characterization():
    rng = np.random.default_rng(1005)
    t0 = time.perf_counter()
    cov_dev = 0.0
    dense_dev = 0.0
    for trial in range(20):
        n = 1 + trial % 3
        h = rand_antisym(rng, 2 * n)
        d = rng.normal(size=2 * n) * 0.4

        s_th = st_mod.from_thermal(h, d)

        # circuit route: canonical diagonal input + compiled rotation
        R, _ = antisym.block_diagonalize(s_th.M_ext)
        lambdas = s_th.canonical_lambdas()
        seq = un_mod.compile(un_mod.DGUnitary.from_rotation(n, R.T))
        s_circ = simulator.run(
            simulator.Circuit(st_mod.from_diagonal([-l for l in lambdas]), seq)
        )

        # dense route: Gibbs operator of the quadratic-plus-linear generator
        H = np.zeros((1 << n, 1 << n), dtype=complex)
        for j in range(2 * n):
            for k in range(2 * n):
                H += (1j / 2) * h[j, k] * oracle.majorana(n, j) @ oracle.majorana(n, k)
            H += d[j] * oracle.majorana(n, j)
        rho = scipy.linalg.expm(-H)
        rho /= np.trace(rho)

        cov_dev = max(cov_dev, float(np.max(np.abs(s_th.M_ext - s_circ.M_ext))))
        cov_dev = max(
            cov_dev, float(np.max(np.abs(s_th.M_ext - oracle.covariance_from_dense(rho))))
        )
        dense_dev = max(dense_dev, float(np.max(np.abs(st_mod.dense(s_th) - rho))))
        dense_dev = max(dense_dev, float(np.max(np.abs(st_mod.dense(s_circ) - rho))))
    elapsed = time.perf_counter() - t0
    ok = cov_dev < 1e-8 and dense_dev < 1e-8 and elapsed < 60
    _verdict(
        5,
        "thermal / circuit / dense three-way agreement",
        ok,
        f"20 instances n<=3, carrier dev {cov_dev:.2e}, dense dev {dense_dev:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_6_embedding():
    rng = np.random.default_rng(1006)
    t0 = time.perf_counter()
    cov_dev = 0.0
    purity_dev = 0.0
    compat_dev = 0.0
    for n in (1, 2, 3):
        for pure in (True, False):
            s = rand_pure_state(rng, n) if pure else rand_state(rng, n)
            rho_emb = emb.embed_dense(st_mod.dense(s))
            out = emb.embed_state(s)
            want = oracle.covariance_from_dense(rho_emb)
            cov_dev = max(
                cov_dev, float(np.max(np.abs(out.M - want[: 2 * n + 2, : 2 * n + 2])))
            )
            purity_dev = max(
                purity_dev,
                abs(float(np.real(np.trace(rho_emb @ rho_emb))) - st_mod.purity(s)),
            )
            U = rand_unitary(rng, n)
            lhs = emb.embed_state(un_mod.conjugate_state(U, s))
            rhs = un_mod.conjugate_state(emb.embed_unitary(U), emb.embed_state(s))
            compat_dev = max(compat_dev, float(np.max(np.abs(lhs.M - rhs.M))))

    v_dev = 0.0
    for n in (1, 2, 3):
        prod = elementary_dense(embed_v_gates(n), n + 1)
        v_dev = max(v_dev, phase_aligned_distance(prod, oracle.embed_V(n)))

    elapsed = time.perf_counter() - t0
    ok = cov_dev < 1e-8 and purity_dev < 1e-8 and compat_dev < 1e-8 and v_dev < 1e-10 and elapsed < 60
    _verdict(
        6,
        "even embedding",
        ok,
        f"carrier dev {cov_dev:.2e}, purity dev {purity_dev:.2e}, "
        f"compatibility dev {compat_dev:.2e}, gate decomposition dev {v_dev:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_7_gaussianity_verdicts():
    rng = np.random.default_rng(1007)
    t0 = time.perf_counter()
    cases = []  # (label, got_verdict, want_verdict)
    overlap_dev = 0.0

    # Gaussian states built by the compiler (even, pure)
    for i in range(5):
        n = 2 + i % 2
        h = rand_antisym(rng, 2 * n)
        U = un_mod.DGUnitary.from_generator(n, h, np.zeros(2 * n))
        seq = un_mod.compile(U)
        psi = st_mod.dense(
            simulator.run(simulator.Circuit(st_mod.from_diagonal([1.0] * n), seq))
        )
        overlap, verdict = emb.gaussian_state_test(psi)
        overlap_dev = max(overlap_dev, abs(overlap - 1.0))
        cases.append((f"compiled even state {i}", verdict, True))

    # Even Gaussian unitaries
    for i in range(4):
        n = 1 + i % 2
        h = rand_antisym(rng, 2 * n)
        U = un_mod.DGUnitary.from_generator(n, h, np.zeros(2 * n))
        verdict, _ = emb.gaussian_unitary_test(U.dense())
        cases.append((f"even unitary {i}", verdict, True))

    # Displaced Gaussian states, pure and mixed
    for i, n in enumerate((1, 2, 3)):
        verdict, _ = emb.displaced_state_test(st_mod.dense(rand_pure_state(rng, n)))
        cases.append((f"pure displaced state n={n}", verdict, True))
    for i, n in enumerate((1, 2, 3)):
        verdict, _ = emb.displaced_state_test(st_mod.dense(rand_state(rng, n)))
        cases.append((f"mixed displaced state n={n}", verdict, True))

    # Displaced Gaussian unitaries
    for i, n in enumerate((1, 2)):
        verdict, _ = emb.displaced_unitary_test(rand_unitary(rng, n).dense())
        cases.append((f"displaced unitary n={n}", verdict, True))

    # Qubit product states inside the class
    blochs = [rand_bloch(rng, pure=True) for _ in range(3)]
    verdict, _ = emb.displaced_state_test(dense_product(blochs))
    cases.append(("pure product state", verdict, True))
    verdict, _ = emb.displaced_state_test(
        dense_product([np.array([0.3, 0.4, 0.5]), np.array([0.0, 0.0, 0.6])])
    )
    cases.append(("mixed product, trailing diagonal", verdict, True))

    # Non-Gaussian controls
    overlap, verdict = emb.gaussian_state_test(ghz4())
    cases.append(("GHZ4 convolution test", verdict, False))
    verdict, _ = emb.displaced_state_test(ghz4())
    cases.append(("GHZ4 displaced test", verdict, False))
    Uq = quartic_unitary()
    verdict, _ = emb.gaussian_unitary_test(Uq)
    cases.append(("quartic-generator unitary", verdict, False))
    verdict, _ = emb.displaced_unitary_test(Uq)
    cases.append(("quartic-generator unitary, displaced test", verdict, False))
    cz = np.eye(8, dtype=complex)
    for b in range(8):
        if (b >> 2) & 1 and b & 1:
            cz[b, b] = -1
    verdict, _ = emb.displaced_unitary_test(cz)
    cases.append(("non-adjacent CZ(0,2)", verdict, False))
    verdict, _ = emb.displaced_state_test(
        dense_product([np.array([0.6, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])])
    )
    cases.append(("mixed product with transverse tail", verdict, False))
    verdict, _ = emb.gaussian_mixed_test(
        emb.embed_dense(st_mod.dense(rand_state(rng, 2)))
    )
    cases.append(("even embedding of a mixed state", verdict, False))

    wrong = [label for label, got, want in cases if got != want]
    elapsed = time.perf_counter() - t0
    ok = not wrong and len(cases) >= 25 and overlap_dev < 1e-8 and elapsed < 120
    _verdict(
        7,
        "gaussianity test verdicts",
        ok,
        f"{len(cases)} labeled cases, wrong={wrong}, "
        f"max |overlap-1| on Gaussian states {overlap_dev:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_8_performance():
    rng = np.random.default_rng(1008)
    n = 500
    seq = rand_sequence(rng, n, 10_000)
    lambdas = rng.uniform(-1, 1, size=n).tolist()
    t0 = time.perf_counter()
    out = simulator.run(simulator.Circuit(st_mod.from_diagonal(lambdas), seq))
    K = tuple(sorted(rng.choice(n, size=10, replace=False).tolist()))
    total = 0.0
    for xv in range(1 << 10):
        x = tuple((xv >> (9 - i)) & 1 for i in range(10))
        total += simulator.expectation(out, simulator.MeasurementOp(K, x))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60 and abs(total - 1.0) < 1e-9
    _verdict(
        8,
        "performance smoke n=500, 10k gates, 10-line measurement",
        ok,
        f"{elapsed:.1f}s, 10-line completeness dev {abs(total - 1.0):.2e}",
    )
