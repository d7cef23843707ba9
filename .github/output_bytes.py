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
``--out`` given, the CLI writes nothing to stdout.  Each workload's
documents then run a second time in the same process, their output
files removed first, and ``warm`` lists the fields in which the second
pass differs from the first: the first pass of a size builds dgsim's
per-process tables, the second only reads them.  A document that
raises is recorded with its traceback, which names SRC's paths, so a
crash at either tree shows as a difference.  The documents come from this
checkout's perfbench, so two records of the same seed see the same
documents.  They are written under WORK in the current directory, the
same path for both records, since an error message may name a document's
path; the directory is removed afterwards.  The record also stores the
core name of each OpenBLAS library the process mapped (``kernels``), since
``dgsim/1`` bytes are defined for a given BLAS kernel
(``OPENBLAS_CORETYPE`` picks another).

``compare`` exits 1 if the records differ anywhere, or if either record
holds a document whose second pass differed from its first, and names
the first differing document.  When base and HEAD ran on different
kernels it says so; that note never changes the exit code.  With
GITHUB_STEP_SUMMARY set it appends the verdict there too.
"""

from __future__ import annotations

import argparse
import ctypes
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
    Last, measured runs, expectation and sampling each, of ``bloch`` and
    ``covariance`` inputs and of lambda = 0 inputs (-0 carriers), on
    lines that include 0 and n - 1, on every line of n = 1, and on no line.
    Then a lambda input at n = 300 measured on 150 lines, expectation and
    50-shot sampling, whose gathered (301-square) carrier spans two
    symmetrization blocks, and a ``bloch`` state run at n = 120.

    Then ``lambdas`` inputs that ``run`` folds over their band: a state run
    with lambda in {0, -0, 1, -1, 0.3} and a third of its angles in
    {0, pi, -pi/2}; a shallow n = 300 state run (n/4 gates, most lines
    untouched, the extension row's -0s kept); a deep n = 6 state run (60n
    gates, the band fills the carrier); and an n = 200 circuit heavy in
    ``line1`` gates, which spread the mean, measured on lines {0, n - 1}
    by expectation and by sampling.

    Then samplers that share prefixes: 10^4 shots on 20 lines of n = 40,
    and 2000 shots of certain outcomes (lambda = +-1 on every line, moved
    by fswaps and turned within their own planes).  Last, two 2000-gate
    lists that the gate parser refuses, at gate 1000 (an unknown kind) and
    at the last gate (a bool axis): their stderr names the location.  Then
    four on the edges of the parser's plain-gate check: every gate's keys
    out of order, int angles up to 10**300 (both run), an int angle past a
    double at gate 1000 and an axis past int64 at the last gate (both
    refused).  Then ``test-unitary`` documents at n = 1 and at n = 3, the
    largest the CLI takes: a dense generator with d, and a sparse h
    without d.  Last, ``compile`` documents: dense generators at n = 1, 2
    and 64, and a sparse h without d at n = 6, whose rotation's exact
    zeros take the factorization's skip branch.
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
    inputs = [(5, {"bloch": workloads.random_pure_blochs(rng, 5)}),
              (6, {"covariance": dict(zip(("M", "mu"), workloads.random_state(rng, 6, pure=False)[:2]))}),
              (4, {"lambdas": [0.0, 0.0, 0.5, 0.0]}), (1, {"lambdas": [0.0]})]
    for n, inp in inputs:
        for gates in (0, 3 * n):
            for lines in ([0, n - 1] if n > 1 else [0], []):
                x = [int(b) for b in rng.integers(0, 2, len(lines))]
                doc = workloads.circuit(n, inp, workloads.random_gates(rng, n, gates), {"lines": lines, "x": x})
                reqs.append(workloads.run_request(doc))
                measure = {"lines": lines, "shots": 300, "seed": int(rng.integers(0, 2**31))}
                doc = workloads.circuit(n, inp, workloads.random_gates(rng, n, gates), measure)
                reqs.append(workloads.run_request(doc, shots=300, lines=len(lines)))
    lambdas, lines = workloads.random_lambdas(rng, 300), list(range(0, 300, 2))
    measure = {"lines": lines, "x": [int(b) for b in rng.integers(0, 2, len(lines))]}
    doc = workloads.circuit(300, {"lambdas": lambdas}, workloads.random_gates(rng, 300, 600), measure)
    reqs.append(workloads.run_request(doc))
    measure = {"lines": lines, "shots": 50, "seed": int(rng.integers(0, 2**31))}
    doc = workloads.circuit(300, {"lambdas": lambdas}, workloads.random_gates(rng, 300, 600), measure)
    reqs.append(workloads.run_request(doc, shots=50, lines=len(lines)))
    blochs = workloads.random_pure_blochs(rng, 120)
    doc = workloads.circuit(120, {"bloch": blochs}, workloads.random_gates(rng, 120, 480))
    reqs.append(workloads.run_request(doc))
    gates = workloads.random_gates(rng, 40, 160)
    for g in gates[::3]:
        if "angle" in g:
            g["angle"] = float(rng.choice([0.0, np.pi, -np.pi / 2]))
    lambdas = [[0.0, -0.0, 1.0, -1.0, 0.3][q % 5] for q in range(40)]
    reqs.append(workloads.run_request(workloads.circuit(40, {"lambdas": lambdas}, gates)))
    for n, count in ((300, 75), (6, 360)):
        doc = workloads.circuit(n, {"lambdas": workloads.random_lambdas(rng, n)}, workloads.random_gates(rng, n, count))
        reqs.append(workloads.run_request(doc))
    n, lambdas = 200, workloads.random_lambdas(rng, 200)
    for measure in ({"lines": [0, n - 1], "x": [1, 0]}, {"lines": [0, n - 1], "shots": 300, "seed": 11}):
        gates = workloads.random_gates(rng, n, 4 * n)
        gates[::2] = [{"kind": "line1", "axes": sorted(rng.choice([0, 1, 2 * n], 2, replace=False).tolist()),
                       "angle": float(rng.uniform(-np.pi, np.pi))} for _ in gates[::2]]
        doc = workloads.circuit(n, {"lambdas": lambdas}, gates, measure)
        reqs.append(workloads.run_request(doc, shots=measure.get("shots", 0), lines=2))
    n, lines = 40, sorted(rng.choice(40, 20, replace=False).tolist())
    measure = {"lines": lines, "shots": 10_000, "seed": int(rng.integers(0, 2**31))}
    doc = workloads.circuit(n, {"lambdas": workloads.random_lambdas(rng, n)}, workloads.random_gates(rng, n, 2 * n), measure)
    reqs.append(workloads.run_request(doc, shots=10_000, lines=20))
    n = 12
    gates = [{"kind": "fswap", "line": int(a)} for a in rng.integers(0, n - 1, 3 * n)]
    gates += [{"kind": "matchgate", "axes": [2 * int(a), 2 * int(a) + 1], "angle": float(t)}
              for a, t in zip(rng.integers(0, n, n), rng.choice([0.0, np.pi, -np.pi / 2], n))]
    rng.shuffle(gates)
    measure = {"lines": list(range(0, n, 2)), "shots": 2000, "seed": int(rng.integers(0, 2**31))}
    doc = workloads.circuit(n, {"lambdas": workloads.random_lambdas(rng, n, pure=True)}, gates, measure)
    reqs.append(workloads.run_request(doc, shots=2000, lines=n // 2))
    for where, bad in ((1000, {"kind": "toffoli", "axes": [0, 1], "angle": 0.5}),
                       (1999, {"kind": "matchgate", "axes": [True, 1], "angle": 0.5})):
        gates = workloads.random_gates(rng, 100, 2000)
        gates[where] = bad
        reqs.append(workloads.run_request(workloads.circuit(100, {"lambdas": workloads.random_lambdas(rng, 100)}, gates)))
    ints = [0, 1, -3, 7, 2**53 + 1, -(2**62), 10**300]
    lists = [[dict(reversed(g.items())) for g in workloads.random_gates(rng, 100, 2000)],
             [{**g, "angle": ints[i % len(ints)]} if "angle" in g else g
              for i, g in enumerate(workloads.random_gates(rng, 100, 2000))]]
    for where, bad in ((1000, {"kind": "matchgate", "axes": [0, 1], "angle": 10**400}),
                       (1999, {"kind": "line1", "axes": [0, 2**64], "angle": 0.5})):
        lists.append(workloads.random_gates(rng, 100, 2000))
        lists[-1][where] = bad
    for gates in lists:
        reqs.append(workloads.run_request(workloads.circuit(100, {"lambdas": workloads.random_lambdas(rng, 100)}, gates)))
    for n in (1, 3):
        reqs.append(workloads.Request("test-unitary", workloads.random_generator(rng, n), n=n))
        doc = workloads.random_generator(rng, n)
        del doc["d"]
        h = np.array(doc["h"]) * np.triu(rng.random((2 * n, 2 * n)) < 0.4, 1)
        doc["h"] = (h - h.T).tolist()
        reqs.append(workloads.Request("test-unitary", doc, n=n))
    for n in (1, 2, 64):
        reqs.append(workloads.Request("compile", workloads.random_generator(rng, n), n=n))
    doc = workloads.random_generator(rng, 6)
    del doc["d"]
    h = np.array(doc["h"]) * np.triu(rng.random((12, 12)) < 0.4, 1)
    doc["h"] = (h - h.T).tolist()
    reqs.append(workloads.Request("compile", doc, n=6))
    return reqs


def blas_kernels(antisym) -> dict:
    """Core name of each OpenBLAS library ``antisym._blas_pools()`` finds, by file name, from its ``*get_corename*`` symbol."""
    kernels = {}
    for path in antisym._blas_pools():
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                kernels[os.path.basename(path)] = get().decode()
                break
    return kernels


def record(src: str, out_path: str, seed: int) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    sys.path.insert(0, src)
    import workloads
    from run import write_docs
    from worker import _hash, run_pass
    from dgsim import antisym, cli

    # worker.py makes the same check inside its main, which also times and traces.
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: dgsim imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    docs = []
    for name in WORKLOADS + ("edge",):
        reqs = edge_requests(workloads) if name == "edge" else workloads.build(name, seed)
        argvs, _ = write_docs(reqs, os.path.join(WORK, name), "d")
        outs = [argv[argv.index("--out") + 1] for argv in argvs]
        passes = []
        for _ in range(2):
            for out in outs:
                if os.path.exists(out):
                    os.remove(out)
            _, _, codes, errs = run_pass(cli, argvs)
            passes.append(list(zip(codes, errs, map(_hash, outs))))
        for i, (r, first, second) in enumerate(zip(reqs, *passes)):
            docs.append({"workload": name, "index": i, "verb": r.verb, "n": r.n,
                         **dict(zip(FIELDS, first)),
                         "warm": [f for f, a, b in zip(FIELDS, first, second) if a != b]})
    shutil.rmtree(WORK, ignore_errors=True)
    kernels = blas_kernels(antisym)  # after the runs, which map SciPy's library too
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "kernels": kernels, "docs": docs}, fh, indent=1)
    print(f"{len(docs)} documents recorded from {src} on OpenBLAS kernel {kernel_names(kernels)}")
    return 0


def kernel_names(kernels) -> str:
    """The distinct core names of a record's libraries, or "unknown" for a record without them."""
    return ", ".join(sorted(set(kernels.values()))) or "unknown"


def compare(base_path: str, head_path: str) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(head_path, encoding="utf-8") as fh:
        head = json.load(fh)
    lines = [f"### Output bytes, seed {head['seed']}: base against HEAD\n"]
    kernels = [kernel_names(r.get("kernels", {})) for r in (base, head)]
    if kernels[0] != kernels[1]:
        lines.append(f"Note: base ran on OpenBLAS kernel {kernels[0]} and HEAD on {kernels[1]}; "
                     "dgsim/1 bytes are defined for a given kernel, so a difference may be the kernels'.\n")
    diffs = []
    if base["seed"] != head["seed"] or len(base["docs"]) != len(head["docs"]):
        diffs.append("the records hold different document sets")
    for b, h in zip(base["docs"], head["docs"]):
        where = f"{h['workload']} document {h['index']} ({h['verb']}, n={h['n']})"
        fields = [f for f in FIELDS if b[f] != h[f]]
        if fields:
            diffs.append(f"{where}: {', '.join(fields)} differ (exit {b['exit']!r} -> {h['exit']!r})")
        for tree, d in (("base", b), ("HEAD", h)):
            if d["warm"]:
                diffs.append(f"{where}: {', '.join(d['warm'])} differ between the passes at {tree}")
    if diffs:
        lines.append(f"**{len(diffs)} differences in {len(head['docs'])} documents.** "
                     f"First: {diffs[0]}\n")
        lines += [f"- {d}" for d in diffs[:20]]
    else:
        lines.append(f"All {len(head['docs'])} documents give the same exit code, stderr "
                     f"and output bytes, in both passes (OpenBLAS kernel {kernels[1]}).")
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
