import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from dgsim import antisym, oracle, simulator as sim, state as st_mod, unitary as un_mod

from helpers import (
    compose,
    fswap,
    fswap_generator4,
    gate_dense,
    gate_rotation,
    gate_rows,
    majorana_monomial,
    phase_aligned_distance,
    rand_antisym,
    rand_gate,
    rand_sequence,
    rand_state,
    rand_unitary,
    sequence_dense,
)

rng = np.random.default_rng(99)


def test_lie_embed_shape_and_antisymmetry():
    h = rand_antisym(rng, 4)
    d = rng.normal(size=4)
    G = un_mod.lie_embed(h, d)
    assert G.shape == (5, 5)
    assert np.max(np.abs(G + G.T)) < 1e-12


def test_rotation_special_orthogonal():
    U = rand_unitary(rng, 3)
    R = U.rotation()
    antisym.check_rotation(R)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rotation_of_overflowing_generator_refused():
    # A finite generator whose exponential is not: 1e300 entries.
    U = un_mod.DGUnitary.from_generator(1, [[0.0, 1e300], [-1e300, 0.0]])
    with pytest.raises(antisym.NumericalAdmissibilityError, match="rotation"):
        U.rotation()
    with pytest.raises(antisym.NumericalAdmissibilityError):
        un_mod.compile(U)
    assert sim.NumericalAdmissibilityError is antisym.NumericalAdmissibilityError


def test_computed_rotation_and_dense_unitary_checked():
    # A finite generator whose exponentials lose orthogonality and unitarity
    # to round-off: refused where they are computed, with the exit-3 class.
    g = np.random.default_rng(0)
    U = un_mod.DGUnitary.from_generator(3, rand_antisym(g, 6, 1e5), g.normal(size=6) * 1e5)
    with pytest.raises(antisym.NumericalAdmissibilityError, match="not orthogonal"):
        U.rotation()
    V = un_mod.DGUnitary.from_generator(2, rand_antisym(g, 4, 1e8), g.normal(size=4) * 1e8)
    with pytest.raises(antisym.NumericalAdmissibilityError, match="not unitary"):
        V.dense()
    W = un_mod.DGUnitary.from_generator(2, rand_antisym(g, 4), g.normal(size=4))
    assert np.max(np.abs(W.dense() @ W.dense().conj().T - np.eye(4))) < 1e-12


def test_generator_roundtrip():
    U = rand_unitary(rng, 2)
    V = un_mod.DGUnitary.from_rotation(2, U.rotation())
    h, d = V.generator()
    W = un_mod.DGUnitary.from_generator(2, h, d)
    assert np.max(np.abs(W.rotation() - U.rotation())) < 1e-9


def test_dense_matches_exp_quadratic():
    for n in (1, 2, 3):
        U = rand_unitary(rng, n)
        assert (
            phase_aligned_distance(U.dense(), oracle.exp_quadratic(n, U.h, U.d))
            < 1e-10
        )


def test_conjugate_state_matches_dense():
    for n in (1, 2, 3):
        for _ in range(4):
            U = rand_unitary(rng, n)
            s = rand_state(rng, n)
            out = un_mod.conjugate_state(U, s)
            Ud = U.dense()
            want = oracle.covariance_from_dense(Ud @ st_mod.dense(s) @ Ud.conj().T)
            assert np.max(np.abs(out.M_ext - want)) < 1e-8


def test_compose_matches_dense():
    n = 2
    U1, U2 = rand_unitary(rng, n), rand_unitary(rng, n)
    U = compose(U1, U2)
    assert phase_aligned_distance(U.dense(), U1.dense() @ U2.dense()) < 1e-9


def test_conjugate_monomial_matches_dense():
    for n in (1, 2):
        U = rand_unitary(rng, n)
        Ud = U.dense()
        for size in (1, 2, 3):
            for J in itertools.combinations(range(2 * n), size):
                terms = un_mod.conjugate_monomial(U, J)
                got = np.zeros_like(Ud)
                for K, coeff in terms.items():
                    got = got + coeff * majorana_monomial(n, K)
                want = Ud @ majorana_monomial(n, J) @ Ud.conj().T
                assert np.max(np.abs(got - want)) < 1e-8, (n, J)


def test_conjugate_monomial_term_budget():
    U = rand_unitary(rng, 2)
    with pytest.raises(ValueError):
        un_mod.conjugate_monomial(U, (0, 1), max_terms=1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugate_monomial_term_budget_boundary(n):
    # The expansion runs over the subsets of size |J~| of the 2n+1
    # extended axes: that many terms pass the budget, one less does not.
    U = rand_unitary(rng, n)
    for size in range(2 * n + 1):
        J = tuple(range(size))
        terms = math.comb(2 * n + 1, size + size % 2)
        assert len(un_mod.conjugate_monomial(U, J, max_terms=terms)) <= terms
        with pytest.raises(ValueError, match=f"needs {terms} coefficients, budget {terms - 1}"):
            un_mod.conjugate_monomial(U, J, max_terms=terms - 1)


@pytest.mark.parametrize("bad", [0.5, True])
def test_conjugate_monomial_refuses_non_integer_indices(bad):
    # int() would truncate 0.5 to 0 and take True as 1.
    with pytest.raises(ValueError, match="must be an integer"):
        un_mod.conjugate_monomial(un_mod.DGUnitary.identity(2), (bad, 2))


def test_conjugate_monomial_takes_numpy_integers():
    U = un_mod.DGUnitary.identity(2)
    assert un_mod.conjugate_monomial(U, (np.int64(0), np.int64(1))) == {(0, 1): 1}


def test_gate_rotation_vs_dense():
    n = 2
    for _ in range(20):
        g = rand_gate(rng, n)
        R = gate_rotation(g, n)
        antisym.check_rotation(R)
        Ug = gate_dense(g, n)
        s = rand_state(rng, n)
        evolved = oracle.covariance_from_dense(Ug @ st_mod.dense(s) @ Ug.conj().T)
        assert np.max(np.abs(R @ s.M_ext @ R.T - evolved)) < 1e-9


def test_gate_validation():
    with pytest.raises(ValueError):
        un_mod.Gate(un_mod.MATCHGATE, axes=(0, 5), angle=0.3).validate(3)
    with pytest.raises(ValueError):
        un_mod.Gate(un_mod.LINE1, axes=(2, 3), angle=0.3).validate(3)
    with pytest.raises(ValueError):
        un_mod.Gate(un_mod.FSWAP, line=2).validate(2)
    un_mod.Gate(un_mod.LINE1, axes=(0, 6), angle=0.3).validate(3)


@pytest.mark.parametrize("fields", [
    dict(kind=un_mod.FSWAP, line=1.7),
    dict(kind=un_mod.FSWAP, line=True),
    dict(kind=un_mod.MATCHGATE, axes=(0.9, 2.2), angle=0.3),
    dict(kind=un_mod.MATCHGATE, axes=(True, 2), angle=0.3),
    dict(kind=un_mod.LINE1, axes=(0, 6.0), angle=0.3),
])
def test_gate_refuses_non_integer_indices(fields):
    # A cast to int64 would truncate these to valid-looking lines and axes.
    message = "^line must be an integer$" if fields["kind"] == un_mod.FSWAP else "^axes must be integers$"
    with pytest.raises(ValueError, match=message):
        un_mod.Gate(**fields)
    with pytest.raises(ValueError, match=message):
        un_mod.GateSequence(3, (un_mod.Gate(**fields),))


def test_gate_stores_numpy_indices_as_ints():
    g = un_mod.Gate(un_mod.MATCHGATE, axes=np.array([0, 2]), angle=0.3)
    f = un_mod.Gate(un_mod.FSWAP, line=np.int32(1))
    assert g.axes == (0, 2) and type(g.axes[0]) is int
    assert f.line == 1 and type(f.line) is int
    assert un_mod.GateSequence(3, (g, f)).line.tolist() == [-1, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gate_refuses_non_finite_angle(bad):
    # Refused before the angle is normalized, so no RuntimeWarning and no NaN.
    with pytest.raises(ValueError, match="matchgate gate angle .* is not finite"):
        un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=bad)
    with pytest.raises(ValueError, match="line1 gate angle .* is not finite"):
        un_mod.Gate(un_mod.LINE1, axes=(0, 2), angle=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sequence_refuses_non_finite_angle(bad):
    # The columns path (parser, compiler) and the Gate path share _check_gates.
    with pytest.raises(un_mod.GateError) as exc:
        un_mod.GateSequence._from_columns(2, [0, 1, 0], [0, 0, 2], [1, 4, 3], [-1, -1, -1],
                                          [0.5, bad, 0.25])
    assert exc.value.index == 1 and str(exc.value) == f"line1 angle {bad} is not finite"
    # Gate refuses a non-finite angle itself, so this one has it set afterwards.
    g = un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=0.5)
    object.__setattr__(g, "angle", bad)
    with pytest.raises(un_mod.GateError) as exc:
        un_mod.GateSequence(2, (un_mod.Gate(un_mod.FSWAP, line=0), g))
    assert exc.value.index == 1 and str(exc.value) == f"matchgate angle {bad} is not finite"


def test_matchgate_windows_exactly():
    # Windows {4m..4m+3} and {4m+2..4m+5} of [0, 2n); the sequence check
    # accepts a matchgate exactly when both axes lie in one of them.
    n = 5
    windows = [set(range(lo, lo + 4)) for lo in range(0, 2 * n - 3, 2)]
    for j, k in itertools.permutations(range(-2, 2 * n + 3), 2):
        want = any({j, k} <= w for w in windows)
        try:
            un_mod.GateSequence(n, (un_mod.Gate(un_mod.MATCHGATE, axes=(j, k), angle=0.1),))
            got = True
        except un_mod.GateError as exc:
            assert exc.index == 0 and "outside every window" in str(exc)
            got = False
        assert got == want, (j, k)


def test_sequence_keeps_gate_fields():
    gates = (
        un_mod.Gate(un_mod.MATCHGATE, axes=(3, 2), angle=-0.0),
        un_mod.Gate(un_mod.LINE1, axes=(4, 1), angle=7.5),
        un_mod.Gate(un_mod.FSWAP, line=0),
    )
    seq = un_mod.GateSequence(2, gates)
    assert len(seq) == 3 and gate_rows(seq) == [(g.kind, g.axes, g.angle, g.line) for g in gates]
    assert np.copysign(1.0, seq.angle[0]) == -1.0
    assert seq.kind.tolist() == [0, 1, 2] and not seq.angle.flags.writeable
    with pytest.raises(un_mod.GateError) as exc:
        un_mod.GateSequence(2, gates + (un_mod.Gate(un_mod.FSWAP, line=1),))
    assert exc.value.index == 3 and str(exc.value) == "fswap line 1 out of range"


def test_sequence_rotation_matches_product():
    n = 3
    seq = rand_sequence(rng, n, 25)
    R = un_mod.sequence_rotation(seq)
    acc = np.eye(2 * n + 1)
    for g in gate_rows(seq):
        acc = gate_rotation(g, n) @ acc
    assert np.max(np.abs(R - acc)) < 1e-10


def test_fswap_gate_dense_is_oracle_fswap():
    g = un_mod.Gate(un_mod.FSWAP, line=1)
    assert np.max(np.abs(gate_dense(g, 3) - fswap(3, 1, 2))) < 1e-14


def test_fswap_rotation_literal_is_expm():
    # The fold's fswap block is a literal, so output bytes do not hang on the
    # installed SciPy.  If this fails on a platform, that platform's expm
    # already gave other doubles, and so other bytes, before the literal.
    want = scipy.linalg.expm(2 * fswap_generator4())
    assert un_mod.FSWAP_ROTATION4.dtype == want.dtype and un_mod.FSWAP_ROTATION4.shape == (4, 4)
    assert un_mod.FSWAP_ROTATION4.tobytes() == want.tobytes()
    assert not un_mod.FSWAP_ROTATION4.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compile_roundtrip(n):
    U = rand_unitary(rng, n)
    seq = un_mod.compile(U)
    assert np.max(np.abs(un_mod.sequence_rotation(seq) - U.rotation())) < 1e-7
    assert len(seq) <= (2 * n + 1) ** 2
    for g in gate_rows(seq):
        un_mod.Gate(*g).validate(n)


def test_compile_dense_projective():
    for n in (2, 3):
        U = rand_unitary(rng, n)
        seq = un_mod.compile(U)
        assert phase_aligned_distance(sequence_dense(seq), U.dense()) < 1e-7


def test_compile_even_avoids_extension_axis():
    n = 3
    h = rand_antisym(rng, 2 * n)
    U = un_mod.DGUnitary.from_generator(n, h, np.zeros(2 * n))
    seq = un_mod.compile(U)
    assert len(seq) > 0 and not (seq.axes == 2 * n).any()


def test_compile_checks_its_rotation_once(monkeypatch):
    # DGUnitary checks the rotation it is given or computes; plane_decompose,
    # called by compile, does not check it again.
    calls, check = [], antisym.check_rotation

    def counted(R):
        calls.append(R.shape)
        return check(R)

    monkeypatch.setattr(antisym, "check_rotation", counted)
    monkeypatch.setattr(un_mod, "check_rotation", counted)
    U = rand_unitary(rng, 2)
    seq = un_mod.compile(U)
    assert calls == [(5, 5)]
    calls.clear()
    assert un_mod.compile_rotation(U.rotation(), 2).axes.tolist() == seq.axes.tolist()
    assert calls == [(5, 5)]
    calls.clear()
    antisym.plane_decompose(U.rotation(), np.ones((5, 5), dtype=bool))
    assert calls == [(5, 5)]


def test_compile_identity_empty():
    U = un_mod.DGUnitary.identity(3)
    assert len(un_mod.compile(U)) == 0


def test_from_rotation_log_branch_error():
    R = np.diag([-1.0, -1.0, 1.0, 1.0, 1.0])
    with pytest.raises(un_mod.LogBranchError):
        un_mod.DGUnitary.from_rotation(2, R).generator()


def alphabet(n):
    """Every gate the register admits, both axis orders and both angle signs.

    Matchgates in every window, line1 gates on (0, 1), (0, 2n), (1, 2n)
    and (2n, 0), (2n, 1), and an fswap on every line.
    """
    ext = 2 * n
    pairs = [(j, k) for j in range(ext) for k in range(ext) if j != k and un_mod._in_window(j, k)]
    gates = [un_mod.Gate(un_mod.MATCHGATE, axes=p, angle=a) for p in pairs for a in (0.7, -2.3)]
    line1 = [(0, ext), (1, ext), (ext, 0), (ext, 1)] + ([(0, 1), (1, 0)] if n > 1 else [])
    gates += [un_mod.Gate(un_mod.LINE1, axes=p, angle=a) for p in line1 for a in (1.1, -0.4)]
    return gates + [un_mod.Gate(un_mod.FSWAP, line=a) for a in range(n - 1)]


@pytest.mark.parametrize("n", range(1, 7))
def test_conjugate_dense_matches_exponential_per_gate(n):
    # Closed form c I + s D against U = exp_quadratic(generator), on a
    # general complex matrix so that rho D^dag is checked on its own.
    dim = 1 << n
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    gates = alphabet(n)
    kinds = {"matchgate", "line1", "fswap"} if n > 1 else {"matchgate", "line1"}
    assert {g.kind for g in gates} == kinds
    for g in gates:
        U = gate_dense(g, n)
        got = un_mod.conjugate_dense(un_mod.GateSequence(n, (g,)), rho)
        assert np.max(np.abs(got - U @ rho @ U.conj().T)) < 1e-13, g


def test_conjugate_dense_sequence_matches_product():
    n = 4
    seq = rand_sequence(rng, n, 40)
    rho = st_mod.dense(rand_state(rng, n))
    U = sequence_dense(seq)
    assert np.max(np.abs(un_mod.conjugate_dense(seq, rho) - U @ rho @ U.conj().T)) < 1e-12
