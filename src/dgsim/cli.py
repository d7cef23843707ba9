"""Command-line front end.

Subcommands: run, compile, embed, test-state, test-unitary,
oracle-verify, version.  ``main`` builds one parser per process, on its
first call, and at each call looks up the verb's ``cmd_*`` by name.  The
command returns its result document; ``main`` alone stamps its schema,
writes it as deterministic JSON (see serialization) and picks the exit
code: 0 ok, 1 when its ``verdict`` or ``ok`` is false, 2 parse error,
3 numerical error, 4 oracle cap exceeded.

An error's class alone picks its code, by the one map FAILURES, whose classes
``main`` catches; every antisym.NumericalAdmissibilityError exits 3.

``main`` runs the verb with every OpenBLAS thread pool in the process on
one thread, SciPy's from the moment a verb loads it, and gives each pool
its caller's count back when the verb returns or raises.  So a
document's bytes do not depend on the host's core count, and library
calls keep the caller's BLAS settings.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import os
import sys

import numpy as np

from . import __version__, embedding, oracle, serialization as ser, simulator, state as st_mod, unitary as un_mod
from .antisym import NumericalAdmissibilityError, _blas_pools
from .oracle import OracleCapError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4


class CliError(Exception):
    """A bad flag, an unreadable file or an unwritable ``--out`` path."""


# The failure map: the first class an error is an instance of picks its exit code and stderr prefix.
FAILURES = (
    (CliError, EXIT_PARSE, "error"),
    (ser.SchemaError, EXIT_PARSE, "parse error"),
    (OracleCapError, EXIT_CAP, "cap error"),
    (NumericalAdmissibilityError, EXIT_NUMERIC, "numerical error"),
    (ValueError, EXIT_PARSE, "parse error"),
    (MemoryError, EXIT_NUMERIC, "memory error"),
)


def _read_doc(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    return ser.loads(text)


def _write(doc, out_path: str | None):
    """Write the result document to ``out_path``, or to stdout.

    An existing regular file is unlinked and written anew, not truncated
    in place: on ext4 the truncation waits for the write-back of the old
    contents, which are flushed when a file truncated to zero is closed.
    A crash then leaves a missing, short or complete file, never new
    bytes mixed with old ones.  Symlinks, devices and FIFOs are written
    through.  The document is formatted first, so a refused result
    leaves the old file as it was.  An unwritable path is a CliError.
    """
    text = ser.dumps(doc)
    if out_path:
        try:
            if os.path.isfile(out_path) and not os.path.islink(out_path):
                os.unlink(out_path)
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _check_flags(args):
    """Refuse out-of-range flag values (exit 2) before any document is read."""
    for name in simulator.SAMPLING_LEAST:
        value = getattr(args, name, None)
        if value is not None:
            try:
                simulator.sampling_arg(name, value)
            except ValueError as exc:
                raise CliError(f"--{name}: {exc}") from None
    tol, n_max = getattr(args, "tol", None), getattr(args, "n_max", None)
    if tol is not None and not (np.isfinite(tol) and tol >= 0):
        raise CliError("--tol must be a finite number of at least 0")
    if n_max is not None and n_max < 1:
        raise CliError("--n-max must be at least 1")


def _measure_override(measure, args):
    """The measurement with --shots and --seed, where given, in place of the document's."""
    flags = {name: getattr(args, name) for name in simulator.SAMPLING_LEAST
             if getattr(args, name) is not None}
    if flags:
        if not isinstance(measure, simulator.Sampling):
            raise CliError("--shots/--seed need a sampling measure block")
        measure = measure._replace(**flags)
    return measure


def _counts(bits: np.ndarray) -> dict[str, int]:
    """Shots per distinct outcome row of a (shots, |K|) bit array.

    Keys are "0"/"1" strings, first line first.  Each row is packed
    eight bits to a byte and counted as one opaque value by np.unique,
    so only the distinct outcomes become strings.
    """
    shots, k = bits.shape
    if k == 0:
        return {"": shots}
    packed = np.packbits(bits, axis=1)
    rows, counts = np.unique(packed.view((np.void, packed.shape[1])).ravel(), return_counts=True)
    outcomes = np.unpackbits(rows.view(np.uint8).reshape(len(rows), -1), axis=1, count=k)
    text = (outcomes + ord("0")).tobytes().decode()
    return {text[i:i + k]: c for i, c in zip(range(0, len(text), k), counts.tolist())}


def cmd_run(args) -> dict:
    circuit, measure = ser.parse_circuit(_read_doc(args.file))
    measure = _measure_override(measure, args)
    doc = {"n": circuit.n}
    if measure is not None:  # run returns the output on the measured lines, renumbered 0..k-1
        circuit = dataclasses.replace(circuit, lines=measure.K)
    out_state = simulator.run(circuit)
    lines = range(out_state.n)
    if measure is None:
        doc["mode"] = "state"
        doc["M"] = out_state.M
        doc["mu"] = out_state.mu
    elif isinstance(measure, simulator.MeasurementOp):
        doc["mode"] = "expectation"
        doc["value"] = simulator.expectation(out_state, simulator.MeasurementOp(lines, measure.x))
    else:
        doc["mode"] = "sample"
        doc["shots"] = measure.shots
        doc["seed"] = measure.seed
        doc["counts"] = _counts(simulator.sample(out_state, lines, measure.shots, measure.seed))
    return doc


def cmd_compile(args) -> dict:
    U = ser.parse_hamiltonian(_read_doc(args.file))
    seq = un_mod.compile(U)
    residual = float(np.max(np.abs(un_mod.sequence_rotation(seq) - U.rotation())))
    count = len(seq)
    return {
        "n": U.n,
        "gates": seq,
        "gate_count": count,
        "cubic_constant": count / U.n**3,
        "residual": residual,
    }


def cmd_embed(args) -> dict:
    s = ser.parse_state(_read_doc(args.file))
    res = embedding.embed_covariance(s)
    emb = res.state()
    return {
        "n": emb.n,
        "M": emb.M,
        "mu": emb.mu,
        "r": res.r,
        "c": res.c,
    }


def _dense_operand(args, parse, dense, limit: int) -> np.ndarray:
    """A ``matrix`` document's operator, or ``dense(parse(doc))``; refused past ``limit`` qubits before dense work."""
    doc = _read_doc(args.file)
    matrix = isinstance(doc, dict) and "matrix" in doc
    operand = (ser.parse_dense_operator if matrix else parse)(doc)
    oracle._check_cap(doc["n"], limit)
    return operand if matrix else dense(operand)


def _evolved_dense(parsed) -> np.ndarray:
    """The dense output state of a parsed circuit."""
    return st_mod.dense(simulator.run(parsed[0]))


def _verdict(args, test: str, check, operand) -> dict:
    """The verdict document of ``check(operand, tol=--tol)``."""
    verdict, deviation = check(operand, tol=args.tol)
    return {"test": test, "verdict": bool(verdict), "deviation": float(deviation)}


def cmd_test_state(args) -> dict:
    return _verdict(args, "displaced-gaussian-state", embedding.displaced_state_test,
                    _dense_operand(args, ser.parse_circuit, _evolved_dense, oracle.ORACLE_MAX_QUBITS))


def cmd_test_unitary(args) -> dict:
    return _verdict(args, "displaced-gaussian-unitary", embedding.displaced_unitary_test,
                    _dense_operand(args, ser.parse_hamiltonian, un_mod.DGUnitary.dense,
                                   embedding.UNITARY_TEST_MAX_QUBITS))


def cmd_oracle_verify(args) -> dict:
    circuit, measure = ser.parse_circuit(_read_doc(args.file))
    oracle._check_cap(args.n_max)
    oracle._check_cap(circuit.n, args.n_max)

    out_state = simulator.run(circuit)
    rho = un_mod.conjugate_dense(circuit.gates, st_mod.dense(circuit.input_state()))
    sigma_dev = float(
        np.max(np.abs(out_state.M_ext - oracle.covariance_from_dense(rho)))
    )
    checkpoints = {"post_state_carrier": sigma_dev}
    if measure is not None:
        lines = measure.K
        prob_dev = 0.0
        for x in itertools.product((0, 1), repeat=len(lines)):
            p = simulator.expectation(out_state, simulator.MeasurementOp(lines, x))
            pb = oracle.born_probability(rho, lines, x)
            prob_dev = max(prob_dev, abs(p - pb))
        checkpoints["measurement_probabilities"] = prob_dev
    ok = all(v < args.tol for v in checkpoints.values())
    return {
        "n": circuit.n,
        "checkpoints": checkpoints,
        "tolerance": args.tol,
        "ok": ok,
    }


def cmd_version(args) -> dict:
    return {"version": __version__}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgsim",
        description="Polynomial-time simulator for displaced fermionic Gaussian circuits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, needs_file=True):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="input document (JSON)")
        p.add_argument("--out", default=None, help="write the result document here")
        return p

    def add_tol(p, default=embedding.GAUSSIAN_TOL):
        p.add_argument("--tol", type=float, default=default, help="tolerance")

    run = add("run")
    run.add_argument("--shots", type=int, default=None, help="override the measure block's shots")
    run.add_argument("--seed", type=int, default=None, help="override the measure block's seed")
    add("compile")
    add("embed")
    add_tol(add("test-state"))
    add_tol(add("test-unitary"))
    verify = add("oracle-verify")
    add_tol(verify, 1e-7)
    verify.add_argument("--n-max", type=int, default=oracle.ORACLE_MAX_QUBITS, dest="n_max",
                        help="refuse circuits wider than this (at most the oracle cap)")
    add("version", needs_file=False)
    return parser


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS pool on one thread inside the block, and its caller's count after.

    A pool mapped inside the block (SciPy's) gets the first pool's
    (NumPy's) caller count after it, as if it had been mapped outside.
    """
    pools = _blas_pools()
    saved = [get() for get, _ in pools.values()]
    for _, set_ in pools.values():
        set_(1)
    try:
        yield
    finally:
        for (_, set_), threads in zip(pools.values(), saved + saved[:1] * len(pools)):
            set_(threads)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        with _one_blas_thread():
            doc = globals()["cmd_" + args.verb.replace("-", "_")](args)
        doc["schema"] = ser.SCHEMA_VERSION
        _write(doc, args.out)
    except tuple(cls for cls, _, _ in FAILURES) as exc:
        code, prefix = next((code, prefix) for cls, code, prefix in FAILURES if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    return EXIT_OK if doc.get("verdict", True) and doc.get("ok", True) else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
