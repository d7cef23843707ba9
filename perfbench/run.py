"""dgsim benchmark: CLI document workloads, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``state-out``, ``measured``,
``synth-verify``.  The run builds the workload's documents from the
seed and writes them to files under ``perfbench/work/``; the program
only sees those files.  A worker process (``worker.py``) imports
``dgsim.cli`` from ``src/`` and calls ``cli.main(argv)`` for one document
at a time, waiting for each result: a closed loop with one client, like
a CLI user.  BLAS threads are left at the library default, which the
record reports.  Every response is then checked (``checker.py``) outside
the timed region.

With ``--trace 0`` the metrics are the end-to-end ones:

    setup_s       median wall time of 7 fresh interpreters importing
                  dgsim.cli, scaled by the run's host speed (see below)
    wall_s        time to answer the whole document set: the sum over the
                  documents of their latency
    req_p50_s     median latency of one cli.main call, output file included
    req_p90_s     90th percentile of that latency
    peak_rss_mb   peak resident set of the worker, which runs only this workload
    ok_frac       share of attempted documents answered correctly
                  (1 - failed_frac; a metric that is never 0)

Times are given at a reference host speed.  The host this runs on is
shared: its speed swings by up to half within a second and steps by a
third for minutes at a time.  So the worker times a fixed reference
kernel that does not use dgsim (``worker.reference_kernel``) before and
after each document, and multiplies the document's latency by ``REF_S``
over the mean of these two reference times (``scaled_latencies``).  A
change to dgsim moves these figures as it moves the raw times, but the
host's spells move them far less.  Half the kernel is a Python loop of
small NumPy calls and half whole-array arithmetic; in a slow spell the
first slows about twice as much as the second.  So the scaling
undercorrects code of the first kind and overcorrects code of the
second, by about a quarter of what the spell does to it.  The record
keeps the raw times and the scale factors.  Set-up time is scaled by
the run's mean reference time (``host_scale``): the reference over the
tenth of a second before an interpreter start varied more than the
start-up times themselves, but the host's steps of minutes move both.

A document's latency is its mean over the run's passes over the
document set.  The number of passes depends only on the workload and
``--seconds``: the seconds divided by the time one pass takes on the
unchanged program (``PASS_S``).  So faster code runs no more passes, and
the mean is always taken over as many.

With ``--trace 1`` the worker runs half that many untraced passes, then
wraps dgsim's functions from outside (``spans.py``) and runs as many
traced ones; the metrics are per layer, plus the scaling fits, the
tracing overhead and the share of traced time booked to the layer whose
code ran (coverage).

The metric names and units printed are those BENCHMARK.json declares.
The last line of standard output is the result object; the line before
it, and ``perfbench/results/<workload>-<seed>-trace<t>.json``, hold the
full record: environment, input summary, sample counts and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
# About the seconds one untraced pass over the document set takes on a
# 2-vCPU Xeon host, when this benchmark was written; fixes the pass count
# for a given --seconds.
PASS_S = {"state-out": 3.0, "measured": 13.0, "synth-verify": 12.5}
# Seconds one worker.reference_kernel call takes at the reference host
# speed: about its mean between documents, on the host named above.  Any
# fixed value would do; this one keeps the scaled times near the raw ones.
REF_S = 0.0012


def pass_count(workload, seconds, trace):
    """Timed passes per run: at least two to average over, or one of each
    kind when tracing."""
    if trace:
        return max(1, int(seconds / 2 // PASS_S[workload]))
    return max(2, int(seconds // PASS_S[workload]))


# ---------------------------------------------------------------------------
# Environment and input record

def blas_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(seed):
    import numpy as np
    import scipy

    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for ln in fh if ln.strip())
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas_info(),
        "commit": commit, "seed": seed, "src_nonblank_lines": src_lines,
    }


def input_record(reqs, outputs):
    ns = sorted(r.n for r in reqs)
    shots = sum(r.shots for r in reqs)
    repeats = 0
    for r, out in zip(reqs, outputs):
        if r.shots and out and out.get("mode") == "sample":
            repeats += r.shots - len(out["counts"])
    verbs = {}
    for r in reqs:
        verbs[r.verb] = verbs.get(r.verb, 0) + 1
    return {
        "documents": len(reqs), "verbs": verbs,
        "n_min": ns[0], "n_median": statistics.median(ns), "n_max": ns[-1],
        "gates": sum(r.gates for r in reqs),
        "shot_lines": sum(r.shot_lines for r in reqs),
        "repeated_shot_share": repeats / shots if shots else 0.0,
    }


# ---------------------------------------------------------------------------
# Running

def write_docs(reqs, directory, prefix):
    os.makedirs(directory, exist_ok=True)
    argvs, sizes = [], []
    for i, r in enumerate(reqs):
        path = os.path.join(directory, f"{prefix}{i}.json")
        text = json.dumps(r.doc)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        sizes.append(len(text.encode()))
        argvs.append([r.verb, path, "--out", os.path.join(directory, f"{prefix}{i}.out.json")])
    return argvs, sizes


def setup_times():
    """Wall time of fresh interpreters importing dgsim.cli.

    The caller has already imported dgsim, so bytecode caches exist.  The
    wait has no timeout, since a wait with one polls every 50 ms; a timer
    kills an interpreter that hangs instead."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import dgsim.cli"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def read_output(argv):
    try:
        with open(argv[3], encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def check_all(checker, reqs, argvs, passes):
    """Check the last pass's responses; earlier passes must repeat them byte for byte.

    Returns (failed attempts, reasons, parsed outputs, output sizes)."""
    last = passes[-1]
    reasons, outputs, sizes = {}, [], []
    for i, (r, argv) in enumerate(zip(reqs, argvs)):
        text = read_output(argv)
        sizes.append(len(text.encode()) if text else 0)
        outputs.append(checker.parse(text))
        why = checker.check(r.verb, r.doc, r.expect, last["codes"][i], outputs[-1])
        if why is not None:
            reasons[i] = f"{r.verb} n={r.n}: {why} {last['stderr'][i].strip()[-300:]}".strip()
    failed = 0
    for p in passes:
        for i in range(len(reqs)):
            if i in reasons or p["codes"][i] != last["codes"][i] or p["hashes"][i] != last["hashes"][i]:
                failed += 1
    return failed, reasons, outputs, sizes


def scale_pass(p):
    """A pass's latencies at the reference host speed.

    Each latency is scaled by the reference times just before and after
    its document, so a spell of the host is corrected where it fell: a
    long document in a slow spell is not averaged with the many short ones
    before and after it.
    """
    ref = p["ref_s"]
    return [t * 2 * REF_S / (a + b) for t, a, b in zip(p["latencies"], ref, ref[1:])]


def host_scale(passes):
    """REF_S over the mean of all the passes' reference times."""
    return REF_S / statistics.fmean(t for p in passes for t in p["ref_s"])


def scaled_latencies(passes):
    """Each document's latency at the reference host speed, mean over the passes."""
    return [statistics.fmean(lat) for lat in zip(*map(scale_pass, passes))]


def end_to_end(setup, lat, res, failed, attempted):
    p50, p90 = (statistics.quantiles(lat, n=10, method="inclusive")[i] for i in (4, 8))
    return {
        "setup_s": statistics.median(setup) * host_scale(res["untraced"]),
        "wall_s": sum(lat),
        "req_p50_s": p50,
        "req_p90_s": p90,
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(spans, res, reqs, outputs, sizes_in, sizes_out, lat, failed, attempted):
    traced = res["traced"]
    compiles = [(r.n, o["gate_count"]) for r, o in zip(reqs, outputs) if r.verb == "compile" and o]
    gates = sum(r.gates for r in reqs)
    shot_lines = sum(r.shot_lines for r in reqs)
    out = spans.layer_metrics([tuple(s) for s in res["spans"]], res["counts"], res["errors"],
                              res["coverage"], len(traced), gates, shot_lines)
    out.update({
        "serialization.bytes_in": sum(sizes_in),
        "serialization.bytes_out": sum(sizes_out),
        "unitary.gates_parsed": gates,
        "unitary.gates_emitted": sum(g for _, g in compiles),
        "unitary.compile_gates_per_n3": max((g / n**3 for n, g in compiles), default=0.0),
        "simulator.shot_lines": shot_lines,
        "trace.overhead_frac": sum(scaled_latencies(traced)) / sum(lat) - 1,
        "failed_frac": failed / attempted,
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dgsim", "cli.py")):
        print(f"error: no dgsim source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checker
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        reqs = workloads.build(args.workload, args.seed)
        warm = workloads.build(args.workload, args.seed, tiny=True)
        argvs, sizes_in = write_docs(reqs, work, "d")
        warm_argvs, _ = write_docs(warm, work, "w")
        setup = setup_times() if not args.trace else []

        plan = {"src": SRC, "requests": argvs, "warmup": warm_argvs, "trace": args.trace,
                "passes": pass_count(args.workload, args.seconds, args.trace)}
        plan_path, result_path = os.path.join(work, "plan.json"), os.path.join(work, "result.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                              cwd=ROOT, timeout=WORKER_TIMEOUT_S, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}", file=sys.stderr)
            return 1
        with open(result_path) as fh:
            res = json.load(fh)

        warm_fail = {}
        for i, (r, wargv) in enumerate(zip(warm, warm_argvs)):
            why = checker.check(r.verb, r.doc, r.expect, res["warmup"]["codes"][i],
                                checker.parse(read_output(wargv)))
            if why is not None:
                warm_fail[i] = why
        passes = res["untraced"] + res.get("traced", [])
        failed, reasons, outputs, sizes_out = check_all(checker, reqs, argvs, passes)
        attempted = len(passes) * len(reqs)
        for i, why in list(reasons.items())[:10]:
            print(f"FAILED doc {i}: {why}", file=sys.stderr)
        for i, why in warm_fail.items():
            print(f"FAILED warm-up doc {i}: {why}", file=sys.stderr)

        lat = scaled_latencies(res["untraced"])
        samples = {"passes": len(res["untraced"]), "documents": len(lat), "setup_runs": len(setup),
                   "raw_pass_wall_s": [sum(p["latencies"]) for p in res["untraced"]],
                   "pass_scale": [sum(scale_pass(p)) / sum(p["latencies"]) for p in res["untraced"]],
                   "raw_setup_s": setup, "host_scale": host_scale(res["untraced"])}
        if args.trace:
            samples["traced_passes"] = len(res["traced"])
            samples["coverage"] = res["coverage"]
            values = per_layer(spans, res, reqs, outputs, sizes_in, sizes_out, lat, failed, attempted)
        else:
            values = end_to_end(setup, lat, res, failed, attempted)
        record = {
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "env": environment(args.seed), "inputs": input_record(reqs, outputs),
            "samples": samples, "failed_documents": reasons, "warmup_failures": warm_fail,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        }
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        with open(os.path.join(HERE, "results", f"{args.workload}-{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(record, fh, indent=1)
        print(json.dumps({k: record[k] for k in ("env", "inputs", "samples")}))
        print(json.dumps({
            "correct": failed == 0 and not warm_fail,
            "attempted": attempted,
            "failed": failed,
            "metrics": record["metrics"],
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
