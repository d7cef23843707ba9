"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from dgsim import cli  # noqa: E402
from dgsim import antisym, simulator  # noqa: E402


def respond(tmp_path, reqs):
    """Answer every request through the CLI, as one untimed pass of the worker."""
    argvs, _ = run.write_docs(reqs, str(tmp_path), "d")
    codes = [cli.main(argv) for argv in argvs]
    return argvs, {"codes": codes, "hashes": [digest(a) for a in argvs], "stderr": [""] * len(argvs)}


def digest(argv):
    with open(argv[3], "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rewrite(argv, edit):
    with open(argv[3]) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(argv[3], "w") as fh:
        json.dump(doc, fh)


def first(reqs, pred):
    return next(i for i, r in enumerate(reqs) if pred(r))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes(tmp_path, name):
    reqs = workloads.build(name, 5, tiny=True)
    argvs, p = respond(tmp_path, reqs)
    failed, reasons, _, _ = run.check_all(checker, reqs, argvs, [p, p])
    assert (failed, reasons) == (0, {})


def test_same_seed_same_documents():
    a = [r.doc for r in workloads.build("measured", 3, tiny=True)]
    b = [r.doc for r in workloads.build("measured", 3, tiny=True)]
    assert a == b != [r.doc for r in workloads.build("measured", 4, tiny=True)]


def test_perturbed_carrier_entry_fails(tmp_path):
    reqs = workloads.build("state-out", 5, tiny=True)
    argvs, p = respond(tmp_path, reqs)
    i = 0

    def perturb(doc):  # keeps M antisymmetric, so only the value check can catch it
        doc["M"][0][2] += 1e-6
        doc["M"][2][0] -= 1e-6

    rewrite(argvs[i], perturb)
    failed, reasons, _, _ = run.check_all(checker, reqs, argvs, [p])
    assert failed == 1 and "M: off by" in reasons[i]


def test_altered_count_fails(tmp_path):
    reqs = workloads.build("measured", 5, tiny=True)
    argvs, p = respond(tmp_path, reqs)
    i = first(reqs, lambda r: r.shots > 0)

    def bump(doc):
        key = next(iter(doc["counts"]))
        doc["counts"][key] += 1

    rewrite(argvs[i], bump)
    failed, reasons, _, _ = run.check_all(checker, reqs, argvs, [p])
    assert failed == 1 and "counts add up" in reasons[i]


def test_wrong_exit_code_fails(tmp_path):
    reqs = workloads.build("synth-verify", 5, tiny=True)
    argvs, p = respond(tmp_path, reqs)
    i = first(reqs, lambda r: r.expect["exit"] == 0)
    p["codes"][i] = 3
    failed, reasons, _, _ = run.check_all(checker, reqs, argvs, [p])
    assert failed == 1 and reasons[i].startswith(f"{reqs[i].verb} n={reqs[i].n}: exit code 3")


def test_response_differing_between_passes_fails(tmp_path):
    reqs = workloads.build("state-out", 5, tiny=True)
    argvs, p = respond(tmp_path, reqs)
    earlier = dict(p, hashes=list(p["hashes"]))
    earlier["hashes"][0] = "0" * 64
    failed, reasons, _, _ = run.check_all(checker, reqs, argvs, [earlier, p])
    assert failed == 1 and reasons == {}


def test_flipped_verdict_fails(tmp_path):
    reqs = workloads.build("synth-verify", 5, tiny=True)
    argvs, p = respond(tmp_path, reqs)
    i = first(reqs, lambda r: r.expect.get("verdict") is False)
    rewrite(argvs[i], lambda doc: doc.update(verdict=True))
    failed, reasons, _, _ = run.check_all(checker, reqs, argvs, [p])
    assert failed == 1 and "verdict" in reasons[i]


def test_predicted_rejection_passes(tmp_path):
    doc = workloads.circuit(3, {"lambdas": [1.0, 0.5, -0.5]},
                            [{"kind": "matchgate", "axes": [0, 5], "angle": 0.3}])
    reqs = [workloads.Request("run", doc, {"exit": 2}, n=3, gates=1)]
    argvs, _ = run.write_docs(reqs, str(tmp_path), "d")
    code = cli.main(argvs[0])
    assert code == 2
    assert checker.check("run", doc, reqs[0].expect, code, None) is None
    assert checker.check("run", doc, reqs[0].expect, 0, None) is not None


def test_latencies_scaled_to_reference_speed():
    r = run.REF_S
    fast = {"latencies": [0.1, 0.3], "ref_s": [r, r, r]}
    slow = {"latencies": [0.2, 0.6], "ref_s": [2 * r, 2 * r, 2 * r]}
    assert run.scaled_latencies([fast, slow]) == pytest.approx([0.1, 0.3])
    assert run.host_scale([fast, slow]) == pytest.approx(2 / 3)
    # The host slows down during the second document only.
    spell = {"latencies": [0.1, 0.6], "ref_s": [r, r, 3 * r]}
    assert run.scaled_latencies([spell]) == pytest.approx([0.1, 0.3])


def test_tracer_books_layers_and_restores(tmp_path):
    original = antisym.pfaffian
    reqs = workloads.build("synth-verify", 5, tiny=True)
    argvs, _ = run.write_docs(reqs, str(tmp_path), "d")
    tracer = spans.Tracer().install()
    try:
        assert antisym.pfaffian is not original
        for i, argv in enumerate(argvs):
            tracer.request = i
            cli.main(argv)
    finally:
        tracer.uninstall()
    assert antisym.pfaffian is original
    roots = [s for s in tracer.spans if s[spans.PARENT] == -1]
    assert [s[spans.NAME] for s in roots] == ["cli.main"] * len(argvs)
    m = spans.layer_metrics(tracer.spans, tracer.counts, tracer.errors, tracer.coverage, 1, 0, 0)
    assert m["antisym.pfaffian_calls"] > 0 and m["embedding.embed_s"] > 0
    assert tracer.coverage["sampled_s"] > 0 and m["trace.coverage_frac"] > 0.9
    assert sum(m[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(1.0)
    assert m["oracle.calls"] > 0 and m["unitary.compile_s"] > 0


def test_coverage_sees_unwrapped_function(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "SAMPLE_S", 0.001)
    rng = workloads.np.random.default_rng(0)
    doc = workloads.circuit(200, {"lambdas": workloads.random_lambdas(rng, 200)},
                            workloads.random_gates(rng, 200, 800), {"lines": [0, 1], "x": [0, 1]})
    argvs, _ = run.write_docs([workloads.run_request(doc)] * 3, str(tmp_path), "d")
    tracer = spans.Tracer().install()
    try:
        simulator.run = vars(simulator.run)["__wrapped__"]  # as if the tracer had missed it
        for argv in argvs:
            cli.main(argv)
    finally:
        tracer.uninstall()
    assert tracer.coverage["misbooked_s"]["simulator.run as cli"] > 0.2 * tracer.coverage["sampled_s"]
