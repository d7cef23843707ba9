import json

import numpy as np
import pytest

from dgsim import antisym, cli, embedding, oracle, serialization as ser, unitary as un_mod

from helpers import ghz4, rand_antisym

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


def test_test_state_verdicts(tmp_path, capsys):
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [1.0, 0.4]))
    code, out = run_cli(capsys, ["test-state", path])
    assert code == 0 and json.loads(out)["verdict"] is True

    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": 4,
        "matrix": ser.complex_matrix_doc(ghz4()),
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
    doc = {"schema": ser.SCHEMA_VERSION, "n": 3, "matrix": ser.complex_matrix_doc(cz)}
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
    # sabotage the simulator side: apply the inverse rotation instead
    import dgsim.simulator as sim_mod

    real = sim_mod.gate_update

    def crooked(g, n):
        rows, Q = real(g, n)
        return rows, Q.T

    monkeypatch.setattr(sim_mod, "gate_update", crooked)
    gates = [{"kind": "matchgate", "axes": [0, 2], "angle": 0.9}]
    path = write_doc(tmp_path, "c.json", circuit_doc(2, [0.8, 0.8], gates))
    code, out = run_cli(capsys, ["oracle-verify", path])
    assert code == 1
    assert json.loads(out)["ok"] is False


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
    calls = []
    real = un_mod.Gate.validate

    def counting(self, n):
        calls.append(self)
        return real(self, n)

    monkeypatch.setattr(un_mod.Gate, "validate", counting)
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
    assert len(calls) == len(gates)


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
