"""Command-line front end.

Subcommands: run, compile, embed, test-state, test-unitary,
oracle-verify, version.  Results are emitted as deterministic JSON
documents (see serialization).  Exit codes: 0 ok, 1 verdict-negative,
2 parse error, 3 numerical error, 4 oracle cap exceeded.
"""

from __future__ import annotations

import argparse
import collections
import os
import sys

import numpy as np

from . import __version__, embedding, oracle, serialization as ser, simulator, state as st_mod, unitary as un_mod
from .oracle import OracleCapError
from .simulator import NumericalAdmissibilityError
from .state import AdmissibilityError, SaturationError
from .unitary import LogBranchError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_CAP = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_doc(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE) from None
    return ser.loads(text)


def _write(doc, out_path: str | None):
    """Write the result document to ``out_path``, or to stdout.

    An existing regular file is unlinked and written anew, not truncated
    in place: on ext4 the truncation waits for the write-back of the old
    contents, which are flushed when a file truncated to zero is closed.
    A crash then leaves a missing, short or complete file, never new
    bytes mixed with old ones.  Symlinks, devices and FIFOs are written
    through.  The document is formatted first, so a refused result
    leaves the old file as it was.
    """
    text = ser.dumps(doc)
    if out_path:
        if os.path.isfile(out_path) and not os.path.islink(out_path):
            os.unlink(out_path)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _measure_override(measure, args):
    if args.shots is not None or args.seed is not None:
        if measure is None or "x" in measure:
            raise CliError("--shots/--seed need a sampling measure block", EXIT_PARSE)
        if args.shots is not None:
            measure["shots"] = args.shots
        if args.seed is not None:
            measure["seed"] = args.seed
    return measure


def cmd_run(args) -> int:
    circuit, measure = ser.parse_circuit(_read_doc(args.file))
    measure = _measure_override(measure, args)
    out_state = simulator.run(circuit)
    doc = {"schema": ser.SCHEMA_VERSION, "n": circuit.n}
    if measure is None:
        doc["mode"] = "state"
        doc["M"] = out_state.M
        doc["mu"] = out_state.mu
    elif measure["mode"] == "expectation":
        op = simulator.MeasurementOp(tuple(measure["lines"]), tuple(measure["x"]))
        doc["mode"] = "expectation"
        doc["value"] = simulator.expectation(out_state, op)
    else:
        outcomes = simulator.sample(
            out_state, measure["lines"], measure["shots"], measure["seed"]
        )
        counts = collections.Counter(outcomes)
        doc["mode"] = "sample"
        doc["shots"] = measure["shots"]
        doc["seed"] = measure["seed"]
        doc["counts"] = {bits: counts[bits] for bits in sorted(counts)}
    _write(doc, args.out)
    return EXIT_OK


def cmd_compile(args) -> int:
    n, h, d = ser.parse_hamiltonian(_read_doc(args.file))
    U = un_mod.DGUnitary.from_generator(n, h, d)
    seq = un_mod.compile(U)
    residual = float(np.max(np.abs(un_mod.sequence_rotation(seq) - U.rotation())))
    count = len(seq.gates)
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": n,
        "gates": [ser.gate_doc(g) for g in seq.gates],
        "gate_count": count,
        "cubic_constant": count / n**3,
        "residual": residual,
    }
    _write(doc, args.out)
    return EXIT_OK


def cmd_embed(args) -> int:
    s = ser.parse_state(_read_doc(args.file))
    res = embedding.embed_covariance(s)
    emb = res.state()
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": emb.n,
        "M": emb.M,
        "mu": emb.mu,
        "r": res.r,
        "c": res.c,
    }
    _write(doc, args.out)
    return EXIT_OK


def _dense_input(args) -> np.ndarray:
    doc = _read_doc(args.file)
    if "matrix" in doc:
        return ser.parse_dense_operator(doc)
    circuit, _ = ser.parse_circuit(doc)
    out_state = simulator.run(circuit)
    return st_mod.dense(out_state)


def cmd_test_state(args) -> int:
    rho = _dense_input(args)
    tol = args.tol if args.tol is not None else embedding.GAUSSIAN_TOL
    verdict, deviation = embedding.displaced_state_test(rho, tol=tol)
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "test": "displaced-gaussian-state",
        "verdict": bool(verdict),
        "deviation": float(deviation),
    }
    _write(doc, args.out)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_test_unitary(args) -> int:
    doc_in = _read_doc(args.file)
    if "matrix" in doc_in:
        U = ser.parse_dense_operator(doc_in)
    else:
        n, h, d = ser.parse_hamiltonian(doc_in)
        U = oracle.exp_quadratic(n, h, d)
    tol = args.tol if args.tol is not None else embedding.GAUSSIAN_TOL
    verdict, deviation = embedding.displaced_unitary_test(U, tol=tol)
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "test": "displaced-gaussian-unitary",
        "verdict": bool(verdict),
        "deviation": float(deviation),
    }
    _write(doc, args.out)
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_oracle_verify(args) -> int:
    circuit, measure = ser.parse_circuit(_read_doc(args.file))
    n_max = args.n_max if args.n_max is not None else oracle.ORACLE_MAX_QUBITS
    if n_max > oracle.ORACLE_MAX_QUBITS:
        raise OracleCapError(
            f"--n-max {n_max} exceeds the oracle cap {oracle.ORACLE_MAX_QUBITS}"
        )
    if circuit.n > n_max:
        raise OracleCapError(f"circuit size {circuit.n} exceeds --n-max {n_max}")
    tol = args.tol if args.tol is not None else 1e-7

    out_state = simulator.run(circuit)
    rho = st_mod.dense(circuit.input_state())
    for g in circuit.gates:
        Ug = un_mod.gate_dense(g, circuit.n)
        rho = Ug @ rho @ Ug.conj().T
    sigma_dev = float(
        np.max(np.abs(out_state.M_ext - oracle.covariance_from_dense(rho)))
    )
    checkpoints = {"post_state_carrier": sigma_dev}
    if measure is not None:
        lines = measure["lines"]
        prob_dev = 0.0
        for xv in range(1 << len(lines)):
            x = tuple((xv >> (len(lines) - 1 - i)) & 1 for i in range(len(lines)))
            p = simulator.expectation(out_state, simulator.MeasurementOp(tuple(lines), x))
            pb = oracle.born_probability(rho, lines, x)
            prob_dev = max(prob_dev, abs(p - pb))
        checkpoints["measurement_probabilities"] = prob_dev
    ok = all(v < tol for v in checkpoints.values())
    doc = {
        "schema": ser.SCHEMA_VERSION,
        "n": circuit.n,
        "checkpoints": checkpoints,
        "tolerance": tol,
        "ok": ok,
    }
    _write(doc, args.out)
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_version(args) -> int:
    _write({"schema": ser.SCHEMA_VERSION, "version": __version__}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dgsim",
        description="Polynomial-time simulator for displaced fermionic Gaussian circuits.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, needs_file=True):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("file", help="input document (JSON)")
        p.add_argument("--out", default=None, help="write the result document here")
        p.set_defaults(func=func)
        return p

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None, help="tolerance")

    run = add("run", cmd_run)
    run.add_argument("--shots", type=int, default=None, help="override the measure block's shots")
    run.add_argument("--seed", type=int, default=None, help="override the measure block's seed")
    add("compile", cmd_compile)
    add("embed", cmd_embed)
    add_tol(add("test-state", cmd_test_state))
    add_tol(add("test-unitary", cmd_test_unitary))
    verify = add("oracle-verify", cmd_oracle_verify)
    add_tol(verify)
    verify.add_argument("--n-max", type=int, default=None, dest="n_max",
                        help="refuse circuits wider than this (at most the oracle cap)")
    add("version", cmd_version, needs_file=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ser.SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleCapError as exc:
        print(f"cap error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (
        NumericalAdmissibilityError,
        AdmissibilityError,
        SaturationError,
        LogBranchError,
        simulator.NonGaussianProductError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
