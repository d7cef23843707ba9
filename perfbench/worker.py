"""Timed closed loop over ``dgsim.cli.main`` in a process of its own.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the source tree, the warm-up and timed requests (CLI
argument lists), how many passes over the whole document set to time,
and whether to trace.  One client sends one document at a time and waits
for its result.  With tracing, the untraced passes run first and then as
many traced ones, so that the tracing overhead is measured in the same
process.

Before the first document and after each one, outside the latencies,
the worker times ``reference_kernel`` (``time_reference``), which does
not use dgsim.  These times track the speed of the shared host while the
documents ran; the parent scales the latencies by them.

Every output file is hashed after each pass, outside the timed region;
the parent checks the files of the last pass and requires the hashes of
every pass to agree.  The process exits after writing RESULT.json, so its
peak resident set is that of this workload alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np


def _hash(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


_REF_VEC = np.linspace(0.0, 1.0, 400)
_REF_ROT = np.array([[0.6, 0.8], [-0.8, 0.6]])
_REF_WIDE = np.linspace(0.0, 1.0, 16384)


def reference_kernel():
    """About a millisecond of work of the two kinds dgsim does.

    Half is a Python loop of small NumPy calls, like the per-gate and
    per-prefix code; half is whole-array arithmetic on 128 KiB, like the
    dense and matrix code.  In a slow spell of the host the first slows
    about twice as much as the second, and dgsim's workloads fall between
    the two.  The kernel uses no dgsim code, so a change to the program
    does not move it.
    """
    x = _REF_VEC.copy()
    for i in range(300):
        x[i:i + 2] = x[i:i + 2] @ _REF_ROT
    for _ in range(4):
        y = np.sin(_REF_WIDE)
        y *= _REF_WIDE
        y.sum()


def time_reference():
    """Median time of three reference_kernel calls.

    The median drops a call that another thread preempted: after a large
    BLAS call, its worker threads keep the second core busy for a while.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def run_pass(cli, requests, tracer=None):
    """One closed-loop pass; returns (latencies, reference times, codes, errors).

    There is one more reference time than latencies: reference times
    ``i`` and ``i + 1`` bracket document ``i``."""
    lat, ref, codes, errs = [], [time_reference()], [], []
    saved, sink = sys.stderr, io.StringIO()
    sys.stderr = sink
    try:
        for i, argv in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed document, not a failed benchmark
                code = None
                sink.write(traceback.format_exc())
            lat.append(time.perf_counter() - t0)
            ref.append(time_reference())
            codes.append(code)
            errs.append(sink.getvalue()[-2000:])
            sink.seek(0)
            sink.truncate()
    finally:
        sys.stderr = saved
    return lat, ref, codes, errs


def timed_passes(cli, requests, count, tracer=None):
    passes = []
    for _ in range(count):
        lat, ref, codes, errs = run_pass(cli, requests, tracer)
        hashes = [_hash(argv[argv.index("--out") + 1]) for argv in requests]
        passes.append({"latencies": lat, "ref_s": ref, "codes": codes, "stderr": errs,
                       "hashes": hashes})
    return passes


def main(plan_path, result_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from dgsim import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(plan["src"]) + os.sep):
        raise SystemExit(f"dgsim imported from {cli.__file__}, not from {plan['src']}")

    warm = run_pass(cli, plan["warmup"])
    result = {"warmup": {"codes": warm[2], "stderr": warm[3]}}
    result["untraced"] = timed_passes(cli, plan["requests"], plan["passes"])
    if plan["trace"]:
        import spans

        tracer = spans.Tracer().install()
        result["traced"] = timed_passes(cli, plan["requests"], plan["passes"], tracer)
        tracer.uninstall()
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["errors"] = dict(tracer.errors)
        result["coverage"] = tracer.coverage
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
