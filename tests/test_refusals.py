"""Refusals no other test reaches, one row each: the call, the error class, the message.

Each message is matched whole, so a reworded refusal shows here.  The
negative measurement determinant is not a row: det(I - S C) is a squared
Pfaffian, so only rounding could make it negative.
"""

import re

import numpy as np
import pytest

from dgsim import antisym, cli, oracle, serialization as ser, simulator as sim
from dgsim import state as st_mod, unitary as un_mod

G = un_mod.Gate
MATCH, LINE1, FSWAP = un_mod.MATCHGATE, un_mod.LINE1, un_mod.FSWAP
EVEN = np.eye(4) / 4  # the maximally mixed state on two lines, an even operator

REFUSALS = {
    # antisym
    "as_bits-length": (lambda: antisym.as_bits((0, 1), 1), ValueError,
                       "line subset and outcome lengths differ"),
    "check_rotation-not-square": (lambda: antisym.check_rotation(np.eye(3)[:2]), antisym.DimensionError,
                                  "expected a square matrix, got shape (2, 3)"),
    "check_rotation-reflection": (lambda: antisym.check_rotation(np.diag([1.0, 1.0, -1.0])), ValueError,
                                  "matrix has determinant != +1"),
    "pfaffian-odd": (lambda: antisym.pfaffian(np.zeros((3, 3))), antisym.DimensionError,
                     "Pfaffian requires even dimension"),
    "pfaffian_restricted-odd": (lambda: antisym.pfaffian_restricted(np.zeros((4, 4)), (0, 1, 2)),
                                antisym.DimensionError, "restriction must have even size"),
    "pfaffian_all_restrictions-22": (lambda: antisym.pfaffian_all_restrictions(np.zeros((22, 22))),
                                     antisym.DimensionError, "all-restrictions table limited to m <= 20"),
    # oracle
    "majorana-no-lines": (lambda: oracle.majorana(0, 0), ValueError, "qubit count must be positive"),
    "majorana-index": (lambda: oracle.majorana(2, 4), IndexError, "Majorana index 4 out of range for n=2"),
    "monomial_string-order": (lambda: oracle.monomial_string(2, (1, 0)), IndexError,
                              "monomial indices must be strictly increasing"),
    "moments-dimension": (lambda: oracle.moments(np.eye(3)), ValueError,
                          "operator dimension is not a power of two"),
    "wick_moment_array-even": (lambda: oracle.wick_moment_array(np.zeros((4, 4))), ValueError,
                               "extended carrier must have odd dimension"),
    "exp_quadratic-shape": (lambda: oracle.exp_quadratic(2, np.zeros((2, 2)), np.zeros(4)), ValueError,
                            "generator dimensions do not match n"),
    "check_state-hermitian": (lambda: oracle.check_state(np.array([[0.5, 1.0], [0.0, 0.5]])), ValueError,
                              "state is not Hermitian"),
    "check_state-trace": (lambda: oracle.check_state(np.eye(2)), ValueError, "state trace is not 1"),
    "check_state-negative": (lambda: oracle.check_state(np.diag([1.5, -0.5])), ValueError,
                             "state has a negative eigenvalue"),
    "fermionic_convolution-unequal": (lambda: oracle.fermionic_convolution(EVEN, np.eye(2) / 2), ValueError,
                                      "convolution inputs must have equal dimension"),
    "fermionic_convolution-odd": (lambda: oracle.fermionic_convolution(EVEN, oracle.majorana(2, 0)),
                                  ValueError, "sigma is not an even operator"),
    "fswap_permutation-line": (lambda: oracle.fswap_permutation(3, 2), ValueError, "need 0 <= a < n - 1"),
    # serialization
    "dumps-object": (lambda: ser.dumps(object()), TypeError, "cannot serialize object"),
    # simulator
    "overlap-sizes": (lambda: sim.overlap(st_mod.from_diagonal([0.5]), st_mod.from_diagonal([0.5, 0.5])),
                      ValueError, "overlap inputs have different sizes"),
    "prepare_product-components": (lambda: sim.prepare_product([[0, 0]]), ValueError,
                                   "each Bloch vector needs three components"),
    # state
    "DGaussState-shapes": (lambda: st_mod.DGaussState(2, np.zeros((2, 2)), np.zeros(4)), ValueError,
                           "covariance dimensions do not match n"),
    # unitary
    "DGUnitary-neither": (lambda: un_mod.DGUnitary(1), ValueError, "need a generator or a rotation"),
    "DGUnitary-h": (lambda: un_mod.DGUnitary(2, h=np.zeros((2, 2))), ValueError,
                    "generator dimensions do not match n"),
    "DGUnitary-R": (lambda: un_mod.DGUnitary(2, R=np.eye(3)), ValueError, "rotation dimension does not match n"),
    "conjugate_state-sizes": (lambda: un_mod.conjugate_state(un_mod.DGUnitary.identity(1),
                                                             st_mod.from_diagonal([0.5, 0.5])),
                              ValueError, "unitary and state sizes differ"),
    "compile_rotation-shape": (lambda: un_mod.compile_rotation(np.eye(3), 2), ValueError,
                               "rotation dimension does not match n"),
    "Gate-kind": (lambda: G("toffoli"), un_mod.GateError, "unknown gate kind 'toffoli'"),
    "Gate-kind-none": (lambda: G(None, line=0), un_mod.GateError, "unknown gate kind None"),
    "Gate-line-on-plane": (lambda: G(MATCH, axes=(0, 1), angle=0.1, line=0), un_mod.GateError,
                           "unknown field(s) ['line']"),
    "Gate-angle-on-fswap": (lambda: G(FSWAP, line=0, angle=0.1), un_mod.GateError,
                            "unknown field(s) ['angle']"),
    "Gate-no-line": (lambda: G(FSWAP), un_mod.GateError, "line must be an integer"),
    "Gate-no-axes": (lambda: G(LINE1, angle=0.1), un_mod.GateError, "axes must be a pair"),
    "Gate-three-axes": (lambda: G(MATCH, axes=(0, 1, 2), angle=0.1), un_mod.GateError, "axes must be a pair"),
    "Gate-equal-axes": (lambda: G(MATCH, axes=(1, 1), angle=0.1), un_mod.GateError, "gate axes must differ"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_gate_error_names_its_field():
    # The field a document's refusal is located at: none for the kind, the keys and equal axes.
    for fields, field in ((dict(kind=FSWAP, line=0.5), "line"), (dict(kind=LINE1, axes=(0,), angle=0.1), "axes"),
                          (dict(kind=MATCH, axes=(0, 1), angle="x"), "angle"),
                          (dict(kind=MATCH, axes=(0, 1), angle=np.inf), "angle"),
                          (dict(kind=MATCH, axes=(0, 0), angle=0.1), None), (dict(kind="x"), None)):
        with pytest.raises(un_mod.GateError) as exc:
            G(**fields)
        assert exc.value.index == 0 and exc.value.field == field


def test_run_refuses_sampling_flags_without_sampling_block(tmp_path, capsys):
    path = tmp_path / "ok.json"
    path.write_text('{"schema": "dgsim/1", "n": 1, "input": {"lambdas": [1.0]}, "gates": []}')
    code = cli.main(["run", str(path), "--shots", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --shots/--seed need a sampling measure block\n"
