import collections
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from dgsim import antisym, cli, embedding, oracle, serialization as ser, simulator
from dgsim import state as st_mod, unitary as un_mod

from helpers import complex_matrix_doc, gate_doc, gate_rows, ghz4, rand_antisym

rng = np.random.default_rng(90210)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def circuit_doc(n, lambdas, gates=(), measure=None):
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": n,
        "input": {"lambdas": list(lambdas)},
        "gates": list(gates),
    }
    if measure is not None:
        doc["measure"] = measure
    return doc


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_run_expectation_trivial(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        "c.json",
        circuit_doc(2, [1.0, 1.0], measure={"lines": [0, 1], "x": [0, 0]}),
    )
    code, out = run_cli(capsys, ["run", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "expectation"
    assert doc["value"] == pytest.approx(1.0, abs=1e-12)

    path = write_doc(
        tmp_path,
        "c2.json",
        circuit_doc(2, [1.0, 1.0], measure={"lines": [0, 1], "x": [0, 1]}),
    )
    code, out = run_cli(capsys, ["run", path])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)


def test_run_expectation_of_no_lines(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [0.5, -0.2], measure={"lines": [], "x": []}))
    code, out = run_cli(capsys, ["run", path])
    assert code == 0
    assert out == '{"mode":"expectation","n":2,"schema":"dgsim/1","value":1}\n'


def test_run_state_mode(tmp_path, capsys):
    gates = [{"kind": "matchgate", "axes": [0, 1], "angle": 0.3}]
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [0.5, -0.2], gates))
    code, out = run_cli(capsys, ["run", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "state"
    M = np.array(doc["M"])
    assert M.shape == (4, 4)
    assert np.max(np.abs(M + M.T)) < 1e-15


def test_run_sample_deterministic(tmp_path, capsys):
    measure = {"lines": [0, 1], "shots": 200, "seed": 7}
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [0.3, -0.6], measure=measure))
    code, out1 = run_cli(capsys, ["run", path])
    assert code == 0
    code, out2 = run_cli(capsys, ["run", path])
    assert code == 0
    assert out1 == out2  # byte-identical on repeat invocations
    doc = json.loads(out1)
    assert doc["mode"] == "sample"
    assert sum(doc["counts"].values()) == 200


def test_run_shots_override(tmp_path, capsys):
    measure = {"lines": [0], "shots": 50, "seed": 1}
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [0.2], measure=measure))
    code, out = run_cli(capsys, ["run", path, "--shots", "80", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["shots"] == 80 and doc["seed"] == 2


def test_run_sample_counts_each_outcome(tmp_path, capsys):
    # Keys put the first measured line first; no measured line gives one "" key.
    lam = [0.3, -0.6, 0.1]
    measure = {"lines": [0, 2], "shots": 300, "seed": 4}
    path = write_doc(tmp_path, "c.json", circuit_doc(3, lam, measure=measure))
    code, out = run_cli(capsys, ["run", path])
    assert code == 0
    from dgsim import simulator, state as st_mod
    bits = simulator.sample(st_mod.from_diagonal(lam), [0, 2], 300, 4)
    want = collections.Counter("".join(map(str, row)) for row in bits.tolist())
    assert json.loads(out)["counts"] == dict(want) and len(want) == 4
    measure = {"lines": [], "shots": 5, "seed": 0}
    path = write_doc(tmp_path, "e.json", circuit_doc(3, lam, measure=measure))
    code, out = run_cli(capsys, ["run", path])
    assert code == 0 and json.loads(out)["counts"] == {"": 5}


@pytest.mark.parametrize("flags", [["--shots", "0"], ["--seed", "-1"]])
def test_run_shots_seed_flags_checked(tmp_path, capsys, flags):
    measure = {"lines": [0], "shots": 5, "seed": 1}
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [0.2], measure=measure))
    code = cli.main(["run", path, *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and flags[0] in captured.err


SAMPLE = {"lines": [0, 1], "shots": 5, "seed": 1}


@pytest.mark.parametrize(
    "edit, loc",
    [
        ({"gates": [{"kind": "fswap", "line": 0.7}]}, "$.gates[0]"),
        ({"gates": [{"kind": "fswap", "line": True}]}, "$.gates[0]"),
        ({"gates": [{"kind": "fswap", "line": "1"}]}, "$.gates[0]"),
        ({"gates": [{"kind": "matchgate", "axes": [0.9, 3.2], "angle": 0.1}]}, "$.gates[0]"),
        ({"gates": [{"kind": "line1", "axes": [0, True], "angle": 0.1}]}, "$.gates[0]"),
        ({"gates": [{"kind": "matchgate", "axes": [1, 2], "angle": True}]}, "$.gates[0]"),
        ({"gates": [{"kind": "fswap", "line": 0}, {"kind": "fswap", "line": 2**70}]},
         "$.gates[1]"),
        ({"measure": {"lines": [0, 1], "x": [1, 1.9]}}, "$.measure.x"),
        ({"measure": {"lines": [0, 1], "x": [True, 0]}}, "$.measure.x"),
        ({"measure": {"lines": [0.5, 1], "x": [0, 0]}}, "$.measure.lines"),
        ({"measure": {**SAMPLE, "shots": 2.9}}, "$.measure.shots"),
        ({"measure": {**SAMPLE, "shots": 0}}, "$.measure.shots"),
        ({"measure": {**SAMPLE, "seed": -1}}, "$.measure.seed"),
        ({"measure": {**SAMPLE, "seed": 1.5}}, "$.measure.seed"),
        ({"n": 3.7, "input": {"lambdas": [1.0, 1.0, 1.0]}}, "$.n"),
        ({"n": True, "input": {"lambdas": [1.0]}}, "$.n"),
    ],
)
def test_non_integer_field_located(tmp_path, capsys, edit, loc):
    doc = {**circuit_doc(3, [1.0, 0.5, -0.5]), **edit}
    code = cli.main(["run", write_doc(tmp_path, "c.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert loc in captured.err


# One rule, two entry points: each value goes through the library call
# and through a `dgsim run` document, which must both accept or both
# refuse it; a refused document names the field and the library's message.
RULE_N = 3
RULE_TABLE = [
    pytest.param(field, value, id=f"{field}={value!r}")
    for field, values in (
        ("lines", ([], [RULE_N - 1], [RULE_N], [-1], [1, 0], [0, 0], [0.5], [True])),
        ("x", ([2], [-1], [True], [1.0])),
        ("shots", (0, 1, 2.5, True)),
        ("seed", (-1, 0, 1.5)),
    )
    for value in values
]


@pytest.mark.parametrize("field, value", RULE_TABLE)
def test_one_rule_two_entry_points(tmp_path, capsys, field, value):
    lam = [0.6, -0.2, 0.4]
    s = st_mod.from_diagonal(lam)
    if field == "x":
        measure = {"lines": [0], "x": value}
        library = partial(simulator.MeasurementOp, (0,), value)
    else:
        measure = {"lines": [0], "shots": 3, "seed": 1, field: value}
        library = partial(simulator.sample, s, measure["lines"], measure["shots"], measure["seed"])
    try:
        library()
        message = None
    except (ValueError, IndexError) as exc:
        message = str(exc)
    code = cli.main(["run", write_doc(tmp_path, "c.json", circuit_doc(RULE_N, lam, measure=measure))])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
    else:
        assert code == 2 and captured.out == ""
        assert captured.err == f"parse error: $.measure.{field}: {message}\n"
    if field in ("shots", "seed") and type(value) is int:
        # The --shots and --seed flags are checked by the same rule.
        doc = circuit_doc(RULE_N, lam, measure={"lines": [0], "shots": 3, "seed": 1})
        code = cli.main(["run", write_doc(tmp_path, "f.json", doc), f"--{field}", str(value)])
        captured = capsys.readouterr()
        if message is None:
            assert code == 0 and captured.err == ""
        else:
            assert code == 2 and captured.err == f"error: --{field}: {message}\n"


COV_M = [[0.0, -1.0], [1.0, 0.0]]


@pytest.mark.parametrize(
    "verb, doc, loc",
    [
        ("run", {**circuit_doc(2, [0.5, 0.5]), "input": {"lambdas": [True, "0.5"]}},
         "$.input.lambdas"),
        ("run", {**circuit_doc(2, [0.5, 0.5]), "input": {"lambdas": [1.0, True]}},
         "$.input.lambdas"),
        ("run", {**circuit_doc(2, [0.5, 0.5]), "input": {"lambdas": [10**400, 0.5]}},
         "$.input.lambdas"),
        ("run", {**circuit_doc(2, [0.5, 0.5]), "input": {"bloch": [[0, 0, 1], [0, 0, "1"]]}},
         "$.input.bloch"),
        ("run", {**circuit_doc(1, [0.5]), "input": {"covariance": {"M": [[0.0, True], [-1.0, 0.0]],
                                                                   "mu": [0.0, 0.0]}}},
         "$.input.covariance.M"),
        ("run", {**circuit_doc(1, [0.5]), "input": {"covariance": {"M": COV_M, "mu": ["0", 0.0]}}},
         "$.input.covariance.mu"),
        ("run", circuit_doc(2, [0.5, 0.5], [{"kind": "matchgate", "axes": [1, 2], "angle": "0.7"}]),
         "$.gates[0].angle"),
        ("run", circuit_doc(2, [0.5, 0.5], [{"kind": "matchgate", "axes": [1, 2], "angle": None}]),
         "$.gates[0].angle"),
        ("run", circuit_doc(2, [0.5, 0.5], [{"kind": "line1", "axes": [0, 4], "angle": 10**400}]),
         "$.gates[0].angle"),
        ("compile", {"schema": ser.SCHEMA_VERSION, "n": 1, "h": [[0.0, False], [0.0, 0.0]]}, "$.h"),
        ("compile", {"schema": ser.SCHEMA_VERSION, "n": 1, "h": COV_M, "d": ["0.1", 0.0]}, "$.d"),
        ("embed", {"schema": ser.SCHEMA_VERSION, "n": 1, "M": COV_M, "mu": [0.0, True]}, "$.mu"),
        ("test-state", {"schema": ser.SCHEMA_VERSION, "n": 1,
                        "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, "0"]]]}, "$.matrix"),
    ],
)
def test_non_number_float_field_located(tmp_path, capsys, verb, doc, loc):
    code = cli.main([verb, write_doc(tmp_path, "d.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{loc}:" in captured.err


@pytest.mark.parametrize(
    "verb, doc, loc",
    [
        ("embed", {"schema": ser.SCHEMA_VERSION, "n": 2, "M": COV_M, "mu": [0.0] * 4}, "$"),
        ("embed", {"schema": ser.SCHEMA_VERSION, "n": 1, "M": COV_M, "mu": [0.0] * 3}, "$"),
        ("run", {**circuit_doc(2, [0.5, 0.5]), "input": {"covariance": {"M": COV_M, "mu": [0.0] * 4}}},
         "$.input.covariance"),
        ("run", {**circuit_doc(1, [0.5]), "input": {"covariance": {"M": COV_M, "mu": [[0.0, 0.0]]}}},
         "$.input.covariance"),
    ],
)
def test_covariance_shape_located(tmp_path, capsys, verb, doc, loc):
    # parse_state and a circuit's covariance input share one parser and keep their locations.
    code = cli.main([verb, write_doc(tmp_path, "d.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"parse error: {loc}: M must be 2n x 2n and mu length 2n\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["oracle-verify", "--tol", "nan"], "--tol"),
        (["oracle-verify", "--tol", "inf"], "--tol"),
        (["oracle-verify", "--tol", "-1"], "--tol"),
        (["test-state", "--tol=-inf"], "--tol"),
        (["test-unitary", "--tol", "nan"], "--tol"),
        (["oracle-verify", "--n-max", "0"], "--n-max"),
        (["oracle-verify", "--n-max", "-1"], "--n-max"),
        (["run", "--shots", "0"], "--shots"),
        (["run", "--seed", "-1"], "--seed"),
    ],
)
def test_flag_values_checked_before_reading(tmp_path, capsys, argv, flag):
    # The document does not exist: the flag is refused before it is read.
    code = cli.main([argv[0], str(tmp_path / "missing.json"), *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert flag in captured.err and "cannot read" not in captured.err


def test_flag_value_zero_tolerance_accepted(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [1.0]))
    code, out = run_cli(capsys, ["oracle-verify", path, "--tol", "0", "--n-max", "1"])
    assert code == 1 and json.loads(out)["tolerance"] == 0.0


def test_run_out_file(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [1.0]))
    out_path = tmp_path / "result.json"
    code, out = run_cli(capsys, ["run", path, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["mode"] == "state"


def test_run_out_replaces_longer_file(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [1.0]))
    code, expected = run_cli(capsys, ["run", path])
    assert code == 0
    out_path = tmp_path / "result.json"
    out_path.write_text("x" * (10 * len(expected)))
    code, out = run_cli(capsys, ["run", path, "--out", str(out_path)])
    assert code == 0 and out == ""
    assert out_path.read_text() == expected


def test_run_out_writes_fresh_file(tmp_path, capsys):
    # A reader holding the old file keeps its bytes: the path gets a new
    # file and the old one is never truncated in place.
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [1.0]))
    out_path = tmp_path / "result.json"
    out_path.write_bytes(b"old contents")
    with open(out_path, "rb") as held:
        code, _ = run_cli(capsys, ["run", path, "--out", str(out_path)])
        assert code == 0
        assert held.read() == b"old contents"
    assert json.loads(out_path.read_text())["mode"] == "state"


def test_run_out_through_symlink(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [1.0]))
    target = tmp_path / "target.json"
    target.write_text("old contents")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _ = run_cli(capsys, ["run", path, "--out", str(link)])
    assert code == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert json.loads(target.read_text())["mode"] == "state"


def test_run_out_dev_null(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(1, [1.0]))
    code, out = run_cli(capsys, ["run", path, "--out", "/dev/null"])
    assert code == 0 and out == ""


def test_compile(tmp_path, capsys):
    n = 3
    h = rand_antisym(rng, 2 * n)
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": n,
        "h": h.tolist(),
        "d": (rng.normal(size=2 * n) * 0.3).tolist(),
    }
    path = write_doc(tmp_path, "h.json", doc)
    code, out = run_cli(capsys, ["compile", path])
    assert code == 0
    res = json.loads(out)
    assert res["residual"] < 1e-7
    assert res["gate_count"] == len(res["gates"]) <= (2 * n + 1) ** 2
    # The gate list is formatted from the sequence's columns: the bytes of
    # emitting one dict per gate.
    U = un_mod.DGUnitary.from_generator(n, np.array(doc["h"]), np.array(doc["d"]))
    seq = un_mod.compile(U)
    assert out == ser.dumps({
        "schema": ser.SCHEMA_VERSION, "n": n, "gates": [gate_doc(g) for g in gate_rows(seq)],
        "gate_count": len(seq), "cubic_constant": len(seq) / n**3,
        "residual": float(np.max(np.abs(un_mod.sequence_rotation(seq) - U.rotation()))),
    })


def test_embed(tmp_path, capsys):
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": 1,
        "M": [[0.0, -1.0], [1.0, 0.0]],
        "mu": [0.0, 0.0],
    }
    path = write_doc(tmp_path, "s.json", doc)
    code, out = run_cli(capsys, ["embed", path])
    assert code == 0
    res = json.loads(out)
    assert res["n"] == 2
    assert abs(abs(res["c"]) - 1.0) < 1e-12  # pure input: unit kernel vector


def test_embed_computes_embedding_once(tmp_path, capsys, monkeypatch):
    calls, pfaffians = [], []
    real, real_pf = embedding._kernel_vector, antisym.pfaffian

    def counting(M_ext):
        calls.append(M_ext.shape)
        return real(M_ext)

    def counting_pf(M):
        pfaffians.append(np.shape(M))
        return real_pf(M)

    monkeypatch.setattr(embedding, "_kernel_vector", counting)
    monkeypatch.setattr(antisym, "pfaffian", counting_pf)
    doc = {"schema": ser.SCHEMA_VERSION, "n": 1, "M": [[0.0, -0.6], [0.6, 0.0]],
           "mu": [0.3, 0.0]}
    code, out = run_cli(capsys, ["embed", write_doc(tmp_path, "s.json", doc)])
    assert code == 0 and json.loads(out)["n"] == 2
    assert calls == [(3, 3)]
    assert pfaffians == [(4, 4)]  # one bordered Pfaffian, not 2n+1 minors


def test_embed_makes_no_canonical_form(tmp_path, capsys, monkeypatch):
    # Admissibility reads the canonical values alone; no rotation is built.
    calls = collections.Counter()
    counted(monkeypatch, antisym, "block_diagonalize", calls)
    doc = {"schema": ser.SCHEMA_VERSION, "n": 2, "mu": [0.3, 0.0, -0.2, 0.1],
           "M": [[0.0, -0.6, 0.1, 0.0], [0.6, 0.0, 0.0, 0.2],
                 [-0.1, 0.0, 0.0, 0.4], [0.0, -0.2, -0.4, 0.0]]}
    code, out = run_cli(capsys, ["embed", write_doc(tmp_path, "s.json", doc)])
    assert code == 0 and json.loads(out)["n"] == 3
    assert calls == {}
    antisym.block_diagonalize(np.zeros((3, 3)))  # the counter is in place
    assert calls == {"block_diagonalize": 1}


def test_test_state_verdicts(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [1.0, 0.4]))
    code, out = run_cli(capsys, ["test-state", path])
    assert code == 0 and json.loads(out)["verdict"] is True

    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": 4,
        "matrix": complex_matrix_doc(ghz4()),
    }
    path = write_doc(tmp_path, "ghz.json", doc)
    code, out = run_cli(capsys, ["test-state", path])
    assert code == 1
    res = json.loads(out)
    assert res["verdict"] is False and res["deviation"] > 1e-3


def test_test_unitary_verdicts(tmp_path, capsys):
    n = 2
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": n,
        "h": rand_antisym(rng, 2 * n).tolist(),
    }
    path = write_doc(tmp_path, "h.json", doc)
    code, out = run_cli(capsys, ["test-unitary", path])
    assert code == 0 and json.loads(out)["verdict"] is True

    cz = np.eye(8, dtype=complex)
    for b in range(8):
        if (b >> 2) & 1 and b & 1:
            cz[b, b] = -1
    doc = {"schema": ser.SCHEMA_VERSION, "n": 3, "matrix": complex_matrix_doc(cz)}
    path = write_doc(tmp_path, "cz.json", doc)
    code, out = run_cli(capsys, ["test-unitary", path])
    assert code == 1 and json.loads(out)["verdict"] is False


def test_oracle_verify_ok(tmp_path, capsys):
    gates = [
        {"kind": "matchgate", "axes": [1, 2], "angle": 0.7},
        {"kind": "line1", "axes": [0, 4], "angle": -0.4},
        {"kind": "fswap", "line": 0},
    ]
    doc = circuit_doc(2, [0.6, -0.3], gates, measure={"lines": [0, 1], "x": [0, 0]})
    path = write_doc(tmp_path, "c.json", doc)
    code, out = run_cli(capsys, ["oracle-verify", path])
    assert code == 0
    res = json.loads(out)
    assert res["ok"] is True
    assert all(v < 1e-7 for v in res["checkpoints"].values())


def test_oracle_verify_catches_corruption(tmp_path, capsys, monkeypatch):
    # sabotage the simulator side: the blocks run folds apply the inverse rotation
    real = un_mod._fold_blocks

    def crooked(*columns):
        return [(sl, rows, Q.T) for sl, rows, Q in real(*columns)]

    monkeypatch.setattr(un_mod, "_fold_blocks", crooked)
    gates = [{"kind": "matchgate", "axes": [0, 2], "angle": 0.9}]
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [0.8, 0.8], gates))
    code, out = run_cli(capsys, ["oracle-verify", path])
    assert code == 1
    assert json.loads(out)["ok"] is False


def counted(monkeypatch, module, name, calls):
    """Count calls of ``module.name`` in every dgsim module that binds it."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    for mod in (cli, ser, simulator, st_mod, un_mod, oracle, antisym, embedding):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, wrapper)


def test_compile_builds_no_fold_blocks(tmp_path, capsys, monkeypatch):
    # Only run folds gate by gate; a compiled sequence never builds the list.
    calls = collections.Counter()
    counted(monkeypatch, un_mod, "_fold_blocks", calls)
    n = 2
    doc = {"schema": ser.SCHEMA_VERSION, "n": n,
           "h": rand_antisym(np.random.default_rng(5), 2 * n).tolist(), "d": [0.1] * (2 * n)}
    assert run_cli(capsys, ["compile", write_doc(tmp_path, "h.json", doc)])[0] == 0
    assert calls["_fold_blocks"] == 0
    gates = [{"kind": "matchgate", "axes": [0, 1], "angle": 0.5}, {"kind": "fswap", "line": 0}]
    assert run_cli(capsys, ["run", write_doc(tmp_path, "c.json", circuit_doc(2, [0.5, 0.5], gates))])[0] == 0
    assert calls["_fold_blocks"] == 1


@pytest.mark.parametrize("n, lam, want", [(600, 1.0, 1.0), (1100, 1.0, 1.0), (1100, 0.5, 0.75**1100)])
def test_run_probability_past_float_range(tmp_path, capsys, n, lam, want):
    # det(I - S C) = 4^k p^2 overflows a float from k = 512 measured lines
    # on, and 2^k overflows one from k = 1024 on.
    doc = circuit_doc(n, [lam] * n, measure={"lines": list(range(n)), "x": [0] * n})
    code = cli.main(["run", write_doc(tmp_path, "c.json", doc)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    value = json.loads(captured.out)["value"]
    assert math.isfinite(value) and value == pytest.approx(want, rel=1e-9)


def test_oracle_verify_builds_input_once(tmp_path, capsys, monkeypatch):
    calls = collections.Counter()
    counted(monkeypatch, simulator, "prepare_product", calls)
    counted(monkeypatch, st_mod, "validate", calls)
    doc = {"schema": ser.SCHEMA_VERSION, "n": 2,
           "input": {"bloch": [[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]]},
           "gates": [{"kind": "matchgate", "axes": [1, 2], "angle": 0.7}],
           "measure": {"lines": [0, 1], "x": [1, 0]}}
    code, out = run_cli(capsys, ["oracle-verify", write_doc(tmp_path, "c.json", doc)])
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == {"prepare_product": 1, "validate": 1}


# An inadmissible input is refused while the document is parsed, so it
# outranks faults found after parsing: a --shots flag without a sampling
# measure block (exit 2) and a circuit wider than the oracle cap (exit 4).
def non_gaussian_doc(n, measure=None):
    doc = {"schema": ser.SCHEMA_VERSION, "n": n, "gates": [],
           "input": {"bloch": [[0.6, 0.0, 0.0], [0.5, 0.0, 0.0]] + [[0.0, 0.0, 1.0]] * (n - 2)}}
    if measure is not None:
        doc["measure"] = measure
    return doc


@pytest.mark.parametrize("argv, n", [(["run", "--shots", "3"], 2), (["oracle-verify"], 7)])
def test_inadmissible_input_outranks_later_faults(tmp_path, capsys, argv, n):
    path = write_doc(tmp_path, "c.json", non_gaussian_doc(n, {"lines": [0], "x": [0]}))
    code = cli.main([argv[0], path, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and "not a displaced Gaussian state" in captured.err


def test_oracle_verify_makes_no_exponential(tmp_path, capsys, monkeypatch):
    # Every gate of the dense side is applied in closed form.
    calls = collections.Counter()
    counted(monkeypatch, oracle, "exp_quadratic", calls)
    real_expm = scipy.linalg.expm

    def counting_expm(*args, **kwargs):
        calls["expm"] += 1
        return real_expm(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
    gates = [
        {"kind": "matchgate", "axes": [1, 2], "angle": 0.7},
        {"kind": "matchgate", "axes": [5, 3], "angle": -1.2},
        {"kind": "line1", "axes": [0, 6], "angle": -0.4},
        {"kind": "line1", "axes": [6, 1], "angle": 2.9},
        {"kind": "fswap", "line": 1},
        {"kind": "fswap", "line": 0},
    ]
    doc = circuit_doc(3, [0.6, -0.3, 0.9], gates, measure={"lines": [0, 2], "x": [1, 0]})
    code, out = run_cli(capsys, ["oracle-verify", write_doc(tmp_path, "c.json", doc)])
    assert code == 0 and json.loads(out)["ok"] is True
    assert calls == {}


# Run in a fresh interpreter (this one holds SciPy): after importing dgsim
# and its CLI, calls cli.main on each (verb, path) of argv[1] in turn and
# prints, per call, its exit code and whether SciPy is then loaded.
_FOOTPRINT = """
import contextlib, io, json, sys
import dgsim, dgsim.cli
report = []
for verb, path in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = dgsim.cli.main([verb, path])
    report.append([verb, code, "scipy" in sys.modules])
print(json.dumps(report))
"""


def test_simulation_verbs_never_import_scipy(tmp_path):
    # run, embed, test-state and oracle-verify need NumPy alone; compile
    # (the matrix logarithm) is the first call that loads SciPy.
    gates = [{"kind": "matchgate", "axes": [1, 2], "angle": 0.7},
             {"kind": "line1", "axes": [0, 6], "angle": -0.4},
             {"kind": "fswap", "line": 1}, {"kind": "fswap", "line": 0}]
    lam = [0.6, -0.3, 0.9]
    docs = [
        ("run", circuit_doc(3, lam, gates)),
        ("run", circuit_doc(3, lam, gates, measure={"lines": [0, 2], "x": [1, 0]})),
        ("run", circuit_doc(3, lam, gates, measure={"lines": [0, 2], "shots": 20, "seed": 1})),
        ("embed", {"schema": ser.SCHEMA_VERSION, "n": 1, "M": [[0.0, -0.6], [0.6, 0.0]],
                   "mu": [0.3, 0.0]}),
        ("test-state", circuit_doc(3, lam, gates)),
        ("oracle-verify", circuit_doc(3, lam, gates, measure={"lines": [1], "x": [0]})),
        ("compile", {"schema": ser.SCHEMA_VERSION, "n": 2, "h": rand_antisym(rng, 4).tolist()}),
    ]
    calls = [(verb, write_doc(tmp_path, f"{i}.json", doc)) for i, (verb, doc) in enumerate(docs)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(calls)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [verb for verb, _, _ in report] == [verb for verb, _ in docs]
    assert [code for _, code, _ in report] == [0] * len(docs)
    assert [loaded for _, _, loaded in report] == [False] * (len(docs) - 1) + [True]


def test_test_state_cap_before_evolution(tmp_path, capsys, monkeypatch):
    calls = collections.Counter()
    counted(monkeypatch, simulator, "run", calls)
    n = oracle.ORACLE_MAX_QUBITS + 1
    gates = [{"kind": "matchgate", "axes": [0, 2], "angle": 0.3}, {"kind": "fswap", "line": 3}]
    path = write_doc(tmp_path, "c.json", circuit_doc(n, [1.0] * n, gates))
    code = cli.main(["test-state", path])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == "" and "oracle cap" in captured.err
    assert calls == {}


def test_oracle_verify_cap(tmp_path, capsys):
    n = oracle.ORACLE_MAX_QUBITS + 1
    path = write_doc(tmp_path, "c.json", circuit_doc(n, [1.0] * n))
    code, _ = run_cli(capsys, ["oracle-verify", path])
    assert code == 4
    path2 = write_doc(tmp_path, "c2.json", circuit_doc(2, [1.0, 1.0]))
    code, _ = run_cli(capsys, ["oracle-verify", path2, "--n-max", str(n)])
    assert code == 4


def test_parse_errors(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", {**circuit_doc(1, [1.0]), "extra": 1})
    code, _ = run_cli(capsys, ["run", path])
    assert code == 2

    bad = tmp_path / "notjson.json"
    bad.write_text("{nope")
    code, _ = run_cli(capsys, ["run", str(bad)])
    assert code == 2

    code, _ = run_cli(capsys, ["run", str(tmp_path / "missing.json")])
    assert code == 2



@pytest.mark.parametrize(
    "gate, loc",
    [
        ({"kind": "matchgate", "axes": [0, 5], "angle": 0.3}, "$.gates[1]"),
        ({"kind": "fswap", "line": 2}, "$.gates[1]"),
    ],
)
def test_bad_gate_located(tmp_path, capsys, gate, loc):
    gates = [{"kind": "fswap", "line": 0}, gate]
    path = write_doc(tmp_path, "c.json", circuit_doc(3, [1.0] * 3, gates))
    code = cli.main(["run", path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert loc in captured.err


SIZE_DOCS = {
    "run": lambda n: circuit_doc(n, [1.0]),
    "embed": lambda n: {"schema": ser.SCHEMA_VERSION, "n": n,
                        "M": [[0.0, -1.0], [1.0, 0.0]], "mu": [0.0, 0.0]},
    "compile": lambda n: {"schema": ser.SCHEMA_VERSION, "n": n,
                          "h": [[0.0, 0.1], [-0.1, 0.0]]},
    "test-state": lambda n: {"schema": ser.SCHEMA_VERSION, "n": n,
                             "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
}


@pytest.mark.parametrize("verb", sorted(SIZE_DOCS))
@pytest.mark.parametrize("n", ["x", 0, -2, None])
def test_bad_size_located(tmp_path, capsys, verb, n):
    path = write_doc(tmp_path, "d.json", SIZE_DOCS[verb](n))
    code = cli.main([verb, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "$.n" in captured.err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_rejected(tmp_path, capsys, token):
    measure = '"measure": {"lines": [0, 1], "shots": 5, "seed": 1}'
    docs = [
        '{"schema": "dgsim/1", "n": 2, "input": {"lambdas": [%s, 1.0]}, "gates": [],'
        ' "measure": {"lines": [0], "x": [0]}}' % token,
        '{"schema": "dgsim/1", "n": 2, "input": {"lambdas": [1.0, 1.0]}, "gates":'
        ' [{"kind": "matchgate", "axes": [1, 2], "angle": %s}], %s}' % (token, measure),
    ]
    for text in docs:
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out = run_cli(capsys, ["run", str(path)])
        assert code == 2 and out == ""


def test_unused_flag_rejected(tmp_path, capsys):
    path = write_doc(tmp_path, "h.json", {"schema": ser.SCHEMA_VERSION, "n": 1,
                                          "h": [[0.0, 0.1], [-0.1, 0.0]]})
    with pytest.raises(SystemExit) as exc:
        cli.main(["compile", path, "--shots", "1"])
    assert exc.value.code == 2


def test_run_validates_each_gate_once(tmp_path, capsys, monkeypatch):
    # One array check of the whole sequence per run, and no per-gate check.
    checks, per_gate = [], []
    real_check, real_validate = un_mod._check_gates, un_mod.Gate.validate

    def counting_check(n, *columns):
        checks.append(len(columns[0]))
        return real_check(n, *columns)

    def counting_validate(self, n):
        per_gate.append(self)
        return real_validate(self, n)

    monkeypatch.setattr(un_mod, "_check_gates", counting_check)
    monkeypatch.setattr(un_mod.Gate, "validate", counting_validate)
    gates = [
        {"kind": "matchgate", "axes": [1, 2], "angle": 0.7},
        {"kind": "line1", "axes": [0, 6], "angle": -0.4},
        {"kind": "fswap", "line": 1},
        {"kind": "matchgate", "axes": [2, 5], "angle": 0.2},
    ]
    measure = {"lines": [0, 2], "x": [0, 1]}
    path = write_doc(tmp_path, "c.json", circuit_doc(3, [0.9, -0.5, 1.0], gates, measure))
    code, _ = run_cli(capsys, ["run", path])
    assert code == 0
    assert checks == [len(gates)] and per_gate == []


def test_numeric_error_inadmissible(tmp_path, capsys):
    M = np.zeros((2, 2))
    M[0, 1], M[1, 0] = -1.0, 1.0
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": 1,
        "input": {"covariance": {"M": M.tolist(), "mu": [0.9, 0.0]}},
        "gates": [],
    }
    path = write_doc(tmp_path, "c.json", doc)
    code, _ = run_cli(capsys, ["run", path])
    assert code == 3


# Generator entries near the float range: the dense exponential and the
# rotation overflow (numpy may warn), and the results would print NaN.
HUGE_H = [[0.0, 1e300], [-1e300, 0.0]]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_deviation_is_numeric_error(tmp_path, capsys):
    doc = {"schema": ser.SCHEMA_VERSION, "n": 1, "h": HUGE_H, "d": [1e300, 0.0]}
    code, out = run_cli(capsys, ["test-unitary", write_doc(tmp_path, "u.json", doc)])
    assert code == 3 and out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_refused_result_keeps_out_file(tmp_path, capsys):
    doc = {"schema": ser.SCHEMA_VERSION, "n": 1, "h": HUGE_H, "d": [1e300, 0.0]}
    out_path = tmp_path / "result.json"
    out_path.write_text("old contents")
    code, out = run_cli(
        capsys, ["test-unitary", write_doc(tmp_path, "u.json", doc), "--out", str(out_path)]
    )
    assert code == 3 and out == ""
    assert out_path.read_text() == "old contents"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_is_numeric_error(tmp_path, capsys):
    # The rotation overflows; it is refused where it is computed, before
    # the compiler or the residual sees it.
    doc = {"schema": ser.SCHEMA_VERSION, "n": 1, "h": HUGE_H}
    code = cli.main(["compile", write_doc(tmp_path, "h.json", doc)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "rotation" in captured.err and "result holds" not in captured.err


# One row per exit path: argv (FILE stands for the document's path), the
# document, the exit code and the start of stderr.  An error's class alone
# picks the code, whatever the route that raised it.
def _generator_doc(n, h, d=None):
    doc = {"schema": ser.SCHEMA_VERSION, "n": n, "h": np.asarray(h).tolist()}
    if d is not None:
        doc["d"] = np.asarray(d).tolist()
    return doc


def _scaled_generator(n, scale):
    g = np.random.default_rng(0)
    h = g.normal(size=(2 * n, 2 * n))
    return _generator_doc(n, (h - h.T) * scale, g.normal(size=2 * n) * scale)


def _matrix_doc(n, A):
    return {"schema": ser.SCHEMA_VERSION, "n": n, "matrix": complex_matrix_doc(A)}


def _input_doc(n, **inp):
    return {**circuit_doc(n, []), "input": inp}


N_CAP = oracle.ORACLE_MAX_QUBITS + 1
KET0 = np.zeros((1 << N_CAP, 1 << N_CAP))
KET0[0, 0] = 1.0
EXIT_TABLE = {
    "version": (["version"], None, 0, ""),
    "negative-verdict": (["test-state", "FILE"], _matrix_doc(4, ghz4()), 1, ""),
    "unreadable-file": (["run", "missing.json"], None, 2, "error: cannot read"),
    "bad-flag-value": (["test-state", "FILE", "--tol", "-1"], circuit_doc(1, [1.0]), 2, "error: --tol"),
    "unknown-field": (["run", "FILE"], {**circuit_doc(1, [1.0]), "extra": 1}, 2, "parse error: $"),
    "gate-outside-register": (["run", "FILE"], circuit_doc(1, [1.0], [{"kind": "fswap", "line": 0}]),
                              2, "parse error: $.gates[0]"),
    "non-object-document": (["test-state", "FILE"], 5, 2, "parse error: $"),
    # check_antisymmetric's rule, scaled by max|h| = 1e3: 1e-9 of asymmetry is allowed.
    "h-asymmetric-beyond-rule": (["compile", "FILE"], _generator_doc(1, [[0, 1e3], [-1e3 + 1e-8, 0]]),
                                 2, "parse error: $.h"),
    "h-asymmetric-within-rule": (["compile", "FILE"], _generator_doc(1, [[0, 1e3], [-1e3 + 1e-10, 0]]),
                                 0, ""),
    "lambdas-above-1": (["run", "FILE"], circuit_doc(1, [1.5]), 3, "numerical error: diagonal parameters"),
    "bloch-longer-than-1": (["run", "FILE"], _input_doc(1, bloch=[[0, 0, 1.5]]),
                            3, "numerical error: Bloch vector"),
    "inadmissible-covariance": (["run", "FILE"], _input_doc(1, covariance={"M": [[0, -1.5], [1.5, 0]],
                                                                          "mu": [0, 0]}),
                                3, "numerical error: canonical values"),
    "compile-rotation-lost": (["compile", "FILE"], _scaled_generator(3, 1e5), 3, "numerical error: the rotation"),
    "test-unitary-dense-lost": (["test-unitary", "FILE"], _scaled_generator(2, 1e8),
                                3, "numerical error: the dense unitary"),
    "compile-huge-h": (["compile", "FILE"], _generator_doc(1, HUGE_H), 3, "numerical error: the rotation"),
    "test-unitary-huge-h": (["test-unitary", "FILE"], _generator_doc(1, HUGE_H, [1e300, 0]),
                            3, "numerical error: "),
    "test-state-mixed-past-cap": (["test-state", "FILE"], _matrix_doc(N_CAP, np.eye(1 << N_CAP) / (1 << N_CAP)),
                                  4, "cap error: "),
    "test-state-ket0-past-cap": (["test-state", "FILE"], _matrix_doc(N_CAP, KET0), 4, "cap error: "),
    "test-unitary-matrix-past-cap": (["test-unitary", "FILE"], _matrix_doc(N_CAP, np.eye(1 << N_CAP)),
                                     4, "cap error: "),
    "oracle-verify-past-n-max": (["oracle-verify", "FILE", "--n-max", "1"], circuit_doc(2, [1.0, 1.0]),
                                 4, "cap error: "),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv, doc, code, prefix", EXIT_TABLE.values(), ids=EXIT_TABLE)
def test_exit_code_table(tmp_path, capsys, monkeypatch, argv, doc, code, prefix):
    monkeypatch.chdir(tmp_path)
    if doc is not None:
        argv = [write_doc(tmp_path, "doc.json", doc) if a == "FILE" else a for a in argv]
    got = cli.main(argv)
    captured = capsys.readouterr()
    assert got == code and captured.err.startswith(prefix)
    assert (captured.out == "") == (code > 1)


# test-unitary runs the Choi-state test on max_entangled(n + 1), so it
# reaches n = 3; a wider document exits 4 naming its own n, before any
# dense matrix is built.
@pytest.mark.parametrize("doc", [_scaled_generator(4, 1.0), _scaled_generator(6, 1.0),
                                 _matrix_doc(4, np.eye(16))], ids=["generator-4", "generator-6", "matrix-4"])
def test_test_unitary_cap_before_dense_work(tmp_path, capsys, monkeypatch, doc):
    assert embedding.UNITARY_TEST_MAX_QUBITS == 3
    calls = collections.Counter()
    for name in ("exp_quadratic", "embed_V"):
        counted(monkeypatch, oracle, name, calls)
    code = cli.main(["test-unitary", write_doc(tmp_path, "u.json", doc)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == f"cap error: dense oracle capped at 3 qubits, got {doc['n']}\n"
    assert calls == {}
    code = cli.main(["test-unitary", write_doc(tmp_path, "u3.json", _scaled_generator(3, 1.0))])
    assert code == 0 and calls == {"exp_quadratic": 1, "embed_V": 1}


# A gate angle follows one rule, unitary._gate_row, whether it reaches a
# Gate or a document: an int or a float, never a bool, refused in the same words.
@pytest.mark.parametrize("angle", [True, np.True_, "0.5", None, Fraction(1, 3)],
                         ids=["bool", "numpy-bool", "string", "none", "fraction"])
def test_gate_angle_follows_document_rule(tmp_path, capsys, angle):
    with pytest.raises(un_mod.GateError, match="^angle must be a number$"):
        un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=angle)
    doc = circuit_doc(2, [0.5, 0.5], [{"kind": "matchgate", "axes": [0, 1], "angle": angle}])
    with pytest.raises(ser.SchemaError, match=r"^\$\.gates\[0\]\.angle: angle must be a number$"):
        ser.parse_circuit(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc, default=str))  # np.True_ and Fraction as strings
    code = cli.main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == "parse error: $.gates[0].angle: angle must be a number\n"


def test_gate_angle_past_double_range(tmp_path, capsys):
    # An int the double range cannot hold is a ValueError on both routes.
    with pytest.raises(un_mod.GateError, match="^int too large to convert to float$"):
        un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=10**400)
    doc = circuit_doc(2, [0.5, 0.5], [{"kind": "matchgate", "axes": [0, 1], "angle": 10**400}])
    code = cli.main(["run", write_doc(tmp_path, "c.json", doc)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "parse error: $.gates[0].angle: int too large to convert to float\n"


def test_gate_angle_accepts_numbers():
    for angle in (1, 0.5, np.int64(1), np.float32(0.5)):
        un_mod.Gate(un_mod.MATCHGATE, axes=(0, 1), angle=angle)
        ser.parse_circuit(circuit_doc(2, [0.5, 0.5], [{"kind": "matchgate", "axes": [0, 1], "angle": angle}]))


# Every schema rule of the document boundary, one document each: the verb,
# the document (a string is written as it is), and the start of stderr.
def _edit(**fields):
    return {**circuit_doc(1, [1.0]), **fields}


def _gate(gate):
    return circuit_doc(2, [1.0, 1.0], [{"kind": "fswap", "line": 0}, gate])


def _measure(measure):
    return _edit(measure=measure)


SCHEMA_TABLE = {
    "invalid-json": ("run", "{nope", "$: invalid JSON: line 1 column 2"),
    "nan-constant": ("run", '{"n": NaN}', "$: non-finite number NaN is not allowed"),
    "overflowing-float": ("run", '{"n": 1e999}', "$: number 1e999 overflows a double"),
    "missing-header-fields": ("run", {"schema": ser.SCHEMA_VERSION, "n": 1},
                              "$: missing field(s) ['gates', 'input']"),
    "wrong-schema": ("run", _edit(schema="dgsim/2"), "$: schema field must be 'dgsim/1', got 'dgsim/2'"),
    "n-not-positive": ("run", _edit(n=0), "$.n: n must be positive"),
    "input-not-object": ("run", _edit(input=[1.0]), "$.input: expected an object, got list"),
    "input-none-of": ("run", _edit(input={}), "$.input: input needs exactly one of"),
    "input-two-of": ("run", _edit(input={"lambdas": [1.0], "bloch": [[0, 0, 1]]}),
                     "$.input: input needs exactly one of"),
    "lambdas-shape": ("run", _edit(input={"lambdas": [1.0, 1.0]}), "$.input.lambdas: expected 1 entries"),
    "bloch-shape": ("run", _edit(input={"bloch": [[0, 0]]}), "$.input.bloch: expected 1 3-vectors"),
    "bloch-ragged": ("run", _edit(input={"bloch": [[0, 0, 1], [0]]}), "$.input.bloch: not a numeric array"),
    "covariance-keys": ("run", _edit(input={"covariance": {"M": COV_M}}),
                        "$.input.covariance: missing field(s) ['mu']"),
    "covariance-shape": ("run", _edit(input={"covariance": {"M": COV_M, "mu": [0.0]}}),
                         "$.input.covariance: M must be 2n x 2n and mu length 2n"),
    "gates-not-list": ("run", _edit(gates={}), "$.gates: gates must be a list"),
    "gate-not-object": ("run", _gate(5), "$.gates[1]: expected an object, got int"),
    "gate-kind-missing": ("run", _gate({"axes": [0, 1], "angle": 0.1}), "$.gates[1]: missing field(s) ['kind']"),
    "gate-kind-unknown": ("run", _gate({"kind": "toffoli"}), "$.gates[1]: unknown gate kind 'toffoli'"),
    "gate-kind-not-string": ("run", _gate({"kind": 3, "line": 0}), "$.gates[1]: unknown gate kind 3"),
    "gate-unknown-key": ("run", _gate({"kind": "fswap", "line": 0, "spin": 1}),
                         "$.gates[1]: unknown field(s) ['spin']"),
    "gate-key-of-other-kind": ("run", _gate({"kind": "fswap", "line": 0, "angle": 0.1}),
                               "$.gates[1]: unknown field(s) ['angle']"),
    "gate-key-missing": ("run", _gate({"kind": "matchgate", "axes": [0, 1]}),
                         "$.gates[1]: missing field(s) ['angle']"),
    "axes-not-list": ("run", _gate({"kind": "matchgate", "axes": 0, "angle": 0.1}),
                      "$.gates[1].axes: axes must be a pair"),
    "axes-three": ("run", _gate({"kind": "line1", "axes": [0, 1, 4], "angle": 0.1}),
                   "$.gates[1].axes: axes must be a pair"),
    "axes-equal": ("run", _gate({"kind": "matchgate", "axes": [1, 1], "angle": 0.1}),
                   "$.gates[1]: gate axes must differ"),
    "measure-not-object": ("run", _measure([0]), "$.measure: expected an object, got list"),
    "measure-unknown-key": ("run", _measure({"lines": [0], "x": [0], "y": 1}), "$.measure: unknown field(s) ['y']"),
    "measure-lines-not-list": ("run", _measure({"lines": 0, "x": [0]}), "$.measure.lines: lines must be a list"),
    "measure-x-and-shots": ("run", _measure({"lines": [0], "x": [0], "shots": 5}),
                            "$.measure: x excludes shots/seed"),
    "measure-x-not-list": ("run", _measure({"lines": [0], "x": 0}), "$.measure.x: x must be a list"),
    "measure-shots-without-seed": ("run", _measure({"lines": [0], "shots": 5}),
                                   "$.measure: measure needs x, or shots and seed"),
    "h-shape": ("compile", _generator_doc(1, np.zeros((3, 3))), "$.h: h must be 2n x 2n"),
    "d-shape": ("compile", _generator_doc(1, np.zeros((2, 2)), [0.0]), "$.d: d must have length 2n"),
    "state-shape": ("embed", {"schema": ser.SCHEMA_VERSION, "n": 1, "M": COV_M, "mu": [0.0]},
                    "$: M must be 2n x 2n and mu length 2n"),
    "matrix-shape": ("test-state", _matrix_doc(1, np.eye(4) / 4), "$.matrix: matrix must be 2^n x 2^n"),
    "matrix-not-re-im": ("test-unitary", {"schema": ser.SCHEMA_VERSION, "n": 1, "matrix": np.eye(2).tolist()},
                         "$.matrix: complex matrix must be [[ [re, im], ... ], ...]"),
}


@pytest.mark.parametrize("verb, doc, start", SCHEMA_TABLE.values(), ids=SCHEMA_TABLE)
def test_schema_rule_table(tmp_path, capsys, verb, doc, start):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = cli.main([verb, str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"parse error: {start}"), captured.err


def test_version(capsys):
    code, out = run_cli(capsys, ["version"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == ser.SCHEMA_VERSION


def test_dumps_deterministic():
    doc = {"b": 1.0 / 3.0, "a": [1, 2.5], "c": {"y": True, "x": None}}
    assert ser.dumps(doc) == ser.dumps(json.loads(ser.dumps(doc)))
    assert '"a"' in ser.dumps(doc)
    assert ser.dumps(doc).index('"a"') < ser.dumps(doc).index('"b"')
