"""Output bytes of every benchmark document, at two source trees, compared.

Usage:
    python3 .github/output_bytes.py record SRC OUT.json [--seed 5]
    python3 .github/output_bytes.py compare BASE.json HEAD.json

``record`` builds every document of the three benchmark workloads
(``perfbench/workloads.py``, written by ``perfbench/run.py``'s
``write_docs``), and a fixed set of edge documents (``edge_requests``),
and runs them through ``dgsim.cli.main`` imported from
SRC, in this one process, with the benchmark worker's own loop
(``worker.run_pass``) and output hash (``worker._hash``).  It stores, per
document, the exit code, what went to stderr (its last 2000 characters,
as the worker keeps them) and the sha256 of the output file; with
``--out`` given, the CLI writes nothing to stdout.  A document that
raises is recorded with its traceback, which names SRC's paths, so a
crash at either tree shows as a difference.  The documents come from this
checkout's perfbench, so two records of the same seed see the same
documents.  They are written under WORK in the current directory, the
same path for both records, since an error message may name a document's
path; the directory is removed afterwards.

``compare`` exits 1 if the records differ anywhere, and names the first
differing document.  With GITHUB_STEP_SUMMARY set it appends the verdict
there too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("state-out", "measured", "synth-verify")
FIELDS = ("exit", "stderr", "sha256")
WORK = "output-bytes-work"


def edge_requests(workloads):
    """Documents whose output takes the writer's rarer paths; the same for every seed.

    State runs whose carrier holds -0 (lambda = 0 puts -0 in the input
    carrier; four of the six outputs keep one), an n = 4 covariance input
    with subnormal entries (with and without gates), a state run at n = 300
    (a carrier of several panels), a dense carrier at n = 300 (a
    random-rotation covariance input), and two ``embed`` documents.
    """
    import numpy as np

    rng = np.random.default_rng(2026)
    docs = []
    for gates in (0, 1, 2, 3, 4, 6):
        lambdas = [0.0, float(rng.uniform(-1, 1)), 0.0]
        docs.append(workloads.circuit(3, {"lambdas": lambdas}, workloads.random_gates(rng, 3, gates)))
    for gates in (0, 8):
        M = np.zeros((8, 8))
        M[[0, 2, 4, 6], [1, 3, 5, 7]] = [0.5, -0.3, 0.9, 0.0]
        M += np.triu(rng.normal(size=(8, 8)) * 1e-310, 1)
        cov = {"M": (M - M.T).tolist(), "mu": (rng.normal(size=8) * 1e-315).tolist()}
        docs.append(workloads.circuit(4, {"covariance": cov}, workloads.random_gates(rng, 4, gates)))
    docs.append(workloads.circuit(300, {"lambdas": workloads.random_lambdas(rng, 300)},
                                  workloads.random_gates(rng, 300, 1200)))
    M, mu, _ = workloads.random_state(rng, 300, pure=False)
    docs.append(workloads.circuit(300, {"covariance": {"M": M, "mu": mu}}, workloads.random_gates(rng, 300, 40)))
    reqs = [workloads.run_request(doc) for doc in docs]
    for n in (6, 3):
        M, mu, _ = workloads.random_state(rng, n, pure=n == 3)
        reqs.append(workloads.Request("embed", {"schema": workloads.SCHEMA, "n": n, "M": M, "mu": mu}, n=n))
    return reqs


def record(src: str, out_path: str, seed: int) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, src)
    import workloads
    from run import write_docs
    from worker import _hash, run_pass
    from dgsim import cli

    # worker.py makes the same check inside its main, which also times and traces.
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: dgsim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    docs = []
    for name in WORKLOADS + ("edge",):
        reqs = edge_requests(workloads) if name == "edge" else workloads.build(name, seed)
        argvs, _ = write_docs(reqs, os.path.join(WORK, name), "d")
        _, _, codes, errs = run_pass(cli, argvs)
        for i, (r, argv, code, err) in enumerate(zip(reqs, argvs, codes, errs)):
            docs.append({"workload": name, "index": i, "verb": r.verb, "n": r.n, "exit": code,
                         "stderr": err, "sha256": _hash(argv[argv.index("--out") + 1])})
    shutil.rmtree(WORK, ignore_errors=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "docs": docs}, fh, indent=1)
    print(f"{len(docs)} documents recorded from {src}")
    return 0


def compare(base_path: str, head_path: str) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(head_path, encoding="utf-8") as fh:
        head = json.load(fh)
    lines = [f"### Output bytes, seed {head['seed']}: base against HEAD\n"]
    diffs = []
    if base["seed"] != head["seed"] or len(base["docs"]) != len(head["docs"]):
        diffs.append("the records hold different document sets")
    for b, h in zip(base["docs"], head["docs"]):
        fields = [f for f in FIELDS if b[f] != h[f]]
        if fields:
            diffs.append(f"{h['workload']} document {h['index']} ({h['verb']}, n={h['n']}): "
                         f"{', '.join(fields)} differ (exit {b['exit']!r} -> {h['exit']!r})")
    if diffs:
        lines.append(f"**{len(diffs)} of {len(head['docs'])} documents differ.** "
                     f"First: {diffs[0]}\n")
        lines += [f"- {d}" for d in diffs[:20]]
    else:
        lines.append(f"All {len(head['docs'])} documents give the same exit code, stderr "
                     "and output bytes.")
    text = "\n".join(lines) + "\n"
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if diffs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="action", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("src", help="source tree holding the dgsim package")
    rec.add_argument("out", help="write the record here (JSON)")
    rec.add_argument("--seed", type=int, default=5)
    cmp = sub.add_parser("compare")
    cmp.add_argument("base")
    cmp.add_argument("head")
    args = ap.parse_args(argv)
    if args.action == "record":
        return record(args.src, args.out, args.seed)
    return compare(args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
