"""Committed mutation checks: every mutant in MUTANTS must be killed by its tests.

Usage:
    python3 .github/mutants.py [NAME ...]

Each mutant is a (name, file, old text, new text, test selection) row.
For each one this script copies ``src/`` and ``tests/`` into a fresh
temporary directory, replaces the old text (which must occur in the file
exactly once) by the new text, and runs pytest on the test selection
there with ``PYTHONPATH`` set to the copy's ``src``.  The mutant is killed
when pytest reports a failing test (exit code 1).  First the same
selections run on an unmutated copy, which must pass, so that a kill
means the mutation was seen.

Exit 1 if a mutant survives, if its old text is missing or ambiguous,
or if pytest ends any other way (no test collected, an internal error).
A surviving mutant means the tests must get stronger; the row stays.
With GITHUB_STEP_SUMMARY set the table of verdicts is appended there.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FOLD = "tests/test_fold_reference.py"
REFUSALS = "tests/test_measured_lines.py::test_inadmissible_carrier_is_refused"
CLI = "tests/test_cli.py"
PARSE = "tests/test_parse_reference.py"
ORACLE = "tests/test_oracle.py"
BAND = "tests/test_band_storage.py"
BAND_DEFINITION = BAND + "::test_band_is_its_reachability_definition"
PLANES = "tests/test_antisym.py::test_plane_decompose_matches_reference"

MUTANTS = [
    ("descending slice keeps stop None", "src/dgsim/unitary.py",
     "np.where(last < 0, None, last)", "np.where(last < -1, None, last)",
     [FOLD + "::test_fold_order_columns_match_reference"]),
    ("fswap Q index", "src/dgsim/unitary.py",
     "np.where(fswap, -1, np.cumsum(~fswap) - 1)", "np.where(fswap, 0, np.cumsum(~fswap) - 1)",
     [FOLD + "::test_fold_order_columns_match_reference"]),
    ("row of the extension axis", "src/dgsim/unitary.py",
     "(gates.axes + shift) % (2 * gates.n + 1)", "(gates.axes + shift)",
     [FOLD + "::test_fold_order_columns_match_reference"]),
    ("sequence_rotation's slice-view product", "src/dgsim/unitary.py",
     "V[...] = Q @ V", "V[...] = Q.T @ V",
     [FOLD + "::test_sequence_rotation_deep_and_wide_match_reference"]),
    ("run's fold-order shift", "src/dgsim/simulator.py",
     "_gate_blocks(c.gates, 1)", "_gate_blocks(c.gates, 0)",
     [FOLD + "::test_gate_sequence_run_matches_reference"]),
    ("band widening: later rows searched past column a + 1", "src/dgsim/simulator.py",
     "s = bisect_right(lo, a, b + 1, H)", "s = bisect_right(lo, a + 1, b + 1, H)",
     [FOLD, BAND_DEFINITION]),
    ("band widening of later rows", "src/dgsim/simulator.py",
     "lo[s:H] = [a] * (H - s)", "lo[s:H] = [a + 1] * (H - s)",
     [FOLD]),
    ("band low of the gate's rows", "src/dgsim/simulator.py",
     "lo[a:b + 1] = [L] * (b + 1 - a)", "lo[a:b + 1] = [L + 1] * (b + 1 - a)",
     [FOLD]),
    ("band high of the gate's rows", "src/dgsim/simulator.py",
     "H = lo[a], bisect_right(lo, b)", "H = lo[a], bisect_left(lo, b)",
     [FOLD, BAND_DEFINITION]),
    ("band low read at the gate's highest row", "src/dgsim/simulator.py",
     "L, H = lo[a], bisect_right", "L, H = lo[b], bisect_right",
     [FOLD, BAND_DEFINITION]),
    ("band stride below the widest product", "src/dgsim/simulator.py",
     "else 2 * W)", "else 2 * W - 1)",
     [BAND]),
    ("W read from a stale band (the input's)", "src/dgsim/simulator.py",
     "W = max(map(operator.sub, range(w), lo))", "W = 1",
     [BAND]),
    ("measured gather without its band mask", "src/dgsim/simulator.py",
     "        Me[np.abs(ext[:, None] - ext) > W] = 0.0  # outside the band\n", "",
     [BAND]),
    ("dense fallback condition inverted", "src/dgsim/simulator.py",
     "w + 1 if c.lines is None or 2 * W >= w else", "w + 1 if not (c.lines is None or 2 * W >= w) else",
     [BAND]),
    ("plane Q expression", "src/dgsim/unitary.py",
     "np.stack((c, s, -s, c), axis=1)", "np.stack((c, -s, s, c), axis=1)",
     [FOLD + "::test_fold_order_columns_match_reference"]),
    ("admissibility rule", "src/dgsim/simulator.py",
     "* np.eye(len(S)) - S @ S.T", "* np.eye(len(S)) + S @ S.T",
     [REFUSALS]),
    ("admissibility tolerance", "src/dgsim/simulator.py",
     "np.linalg.cholesky((1.0 + ADMISSIBILITY_TOL) ** 2 * np.eye", "np.linalg.cholesky(1.0 * np.eye",
     ["tests/test_measured_lines.py::test_full_rule_passes_pure_carriers"]),
    ("prefix-tree node map", "src/dgsim/simulator.py",
     "np.unique(2 * node + b[:, j], return_inverse=True)", "np.unique(node + b[:, j], return_inverse=True)",
     ["tests/test_sample_reference.py"]),
    ("plain gate axis type check", "src/dgsim/serialization.py",
     "type(j) is int and type(k) is int", "type(j) in (int, bool) and type(k) is int",
     [PARSE]),
    ("plain gate with equal axes", "src/dgsim/serialization.py",
     " and j != k and ", " and ",
     [PARSE]),
    ("gate walk without the row-rule fallback", "src/dgsim/serialization.py",
     "_plain_row(obj) or _gate_row(obj, i)", "_plain_row(obj)",
     [PARSE]),
    ("carrier_state block loop", "src/dgsim/state.py",
     "            if j > i:\n", "            if j > i + b:\n",
     [FOLD]),
    ("Bloch-rule fallback", "src/dgsim/simulator.py",
     "short = len(blochs) * (norms.max(initial=1.0) - 1.0) <= ADMISSIBILITY_TOL", "short = True",
     ["tests/test_simulator.py"]),
    ("prepare_product's branch condition inverted", "src/dgsim/simulator.py",
     "(_unchecked if short else DGaussState)", "(_unchecked if not short else DGaussState)",
     ["tests/test_simulator.py::test_long_bloch_vectors_keep_the_carrier_check"]),
    ("panel writer sign token", "src/dgsim/serialization.py",
     '_TOKENS = np.array([b"0,", b"-0,",', '_TOKENS = np.array([b"0,", b"0,",',
     ["tests/test_serialization.py"]),
    ("panel writer row-end code", "src/dgsim/serialization.py",
     "code[:, -1] += 4", "code[:, -1] += 0",
     ["tests/test_serialization.py"]),
    ("panel step", "src/dgsim/serialization.py",
     "for r0 in range(0, len(a), b):", "for r0 in range(0, len(a), 2 * b):",
     ["tests/test_serialization.py"]),
    ("pending panel offset", "src/dgsim/serialization.py",
     "p0 - r0 + 1)] = above", "p0 - r0 + 2)] = above",
     ["tests/test_serialization.py"]),
    ("parser built once per process", "src/dgsim/cli.py",
     "@functools.cache\n", "",
     [CLI + "::test_main_builds_one_parser"]),
    ("verb-to-command name", "src/dgsim/cli.py",
     'args.verb.replace("-", "_")', 'args.verb.replace("-", "")',
     [CLI]),
    ("main's schema stamp", "src/dgsim/cli.py",
     '        doc["schema"] = ser.SCHEMA_VERSION\n', "",
     [CLI]),
    ("exit rule inverted", "src/dgsim/cli.py",
     "return EXIT_OK if doc.get(", "return EXIT_NEGATIVE if doc.get(",
     [CLI]),
    ("verbs' BLAS thread cap", "src/dgsim/cli.py",
     "        set_(1)\n", "        set_(2)\n",
     [CLI]),
    ("BLAS threads restored", "src/dgsim/cli.py",
     "            set_(threads)\n", "            pass\n",
     [CLI]),
    ("SciPy's pool takes NumPy's count", "src/dgsim/antisym.py",
     "        set_(pools[0][0]())", "        pass",
     [CLI]),
    ("maps path split", "src/dgsim/antisym.py",
     "line.split(maxsplit=5)[-1]", "line.split()[-1]",
     ["tests/test_antisym.py::test_blas_pools_read_whole_paths"]),
    ("finite generator d", "src/dgsim/antisym.py",
     "    if not np.isfinite(d).all():\n", "    if False:\n",
     ["tests/test_refusals.py"]),
    ("finite dense state", "src/dgsim/oracle.py",
     "    if not np.isfinite(A).all():\n", "    if False:\n",
     ["tests/test_refusals.py"]),
    ("held table left writable", "src/dgsim/antisym.py",
     "    x.flags.writeable = False\n", "",
     ["tests/test_antisym.py", "tests/test_oracle.py"]),
    ("plan's gather index without the step's bit", "src/dgsim/antisym.py",
     "(masks ^ low ^ bit).astype(np.int32)", "(masks ^ low).astype(np.int32)",
     ["tests/test_antisym.py"]),
    ("plan's sign alternation", "src/dgsim/antisym.py",
     "            sign = -sign\n", "",
     ["tests/test_antisym.py"]),
    ("oracle cap without the integer rule", "src/dgsim/oracle.py",
     '    n = as_index(n, "qubit count")\n    if not 1 <= n:', "    if not 1 <= n:",
     ["tests/test_refusals.py"]),
    ("real-array rule without its complex refusal", "src/dgsim/antisym.py",
     "    if np.iscomplexobj(x):\n", "    if False:\n",
     ["tests/test_refusals.py"]),
    ("check_antisymmetric reads through np.asarray alone", "src/dgsim/antisym.py",
     '    M = _as_real(M, "matrix")\n', "    M = np.asarray(M)\n",
     ["tests/test_refusals.py"]),
    ("DGaussState without the size rule", "src/dgsim/state.py",
     'object.__setattr__(self, "n", _as_qubit_count(self.n))', 'object.__setattr__(self, "n", self.n)',
     ["tests/test_refusals.py"]),
    ("GateSequence without the size rule", "src/dgsim/unitary.py",
     "self.n = _as_qubit_count(n)", "self.n = n",
     ["tests/test_refusals.py"]),
    ("DGUnitary without the sign rule", "src/dgsim/unitary.py",
     'object.__setattr__(self, "n", _as_qubit_count(self.n))',
     'object.__setattr__(self, "n", _as_qubit_count(abs(self.n)))',
     ["tests/test_refusals.py"]),
    ("DGUnitary without the one-form refusal", "src/dgsim/unitary.py",
     '            if self.h is not None or self.d is not None:\n'
     '                raise ValueError("give a generator or a rotation, not both")\n', "",
     ["tests/test_refusals.py"]),
    ("carrier_state without its shape rule", "src/dgsim/state.py",
     "    if E.shape != (len(E),) * 2 or len(E) % 2 == 0:\n", "    if False:\n",
     ["tests/test_refusals.py"]),
    ("Wick phase at k = 7 with a -0 real part", "src/dgsim/antisym.py",
     "-0.0 - 1j, 0 - 1j]))", "-0.0 - 1j, -1j]))",
     ["tests/test_antisym.py::test_wick_phase_is_its_expression_bit_for_bit"]),
    ("plane_decompose clears nearest rows first", "src/dgsim/antisym.py",
     "sorted(near[1:], key=depth.get, reverse=True)", "sorted(near[1:], key=depth.get)",
     [PLANES]),
    ("plane_decompose prunes the heap list's last leaf", "src/dgsim/antisym.py",
     "c = heapq.heappop(leaves)", "c = leaves.pop()",
     [PLANES]),
    ("plane_decompose's sign fix with the farthest vertex", "src/dgsim/antisym.py",
     "rotate(c, near[1], pi)", "rotate(c, near[-1], pi)",
     [PLANES]),
    ("plane_decompose's column walk enters pruned vertices", "src/dgsim/antisym.py",
     "if degree[u] and u not in depth:", "if u not in depth:",
     [PLANES]),
    ("plane_decompose seeds vertex 0 of SO(0)", "src/dgsim/antisym.py",
     "order = [0] if m else []", "order = [0]",
     ["tests/test_antisym.py::test_plane_decompose_of_so0_and_so1_is_empty"]),
    ("check_rotation's orthogonality max without its empty case", "src/dgsim/antisym.py",
     "np.eye(m)).max(initial=0.0)", "np.eye(m)).max()",
     ["tests/test_antisym.py::test_plane_decompose_of_so0_and_so1_is_empty"]),
    ("finite dense unitary", "src/dgsim/embedding.py",
     "    if not np.isfinite(U).all():\n", "    if False:\n",
     ["tests/test_refusals.py"]),
    ("Pauli phase table in the reversed cyclic order", "src/dgsim/oracle.py",
     "(_b - _a) % 3 == 1", "(_a - _b) % 3 == 1",
     [ORACLE + "::test_pauli_tables_are_their_trace_definition"]),
    ("Pauli phase -i with a -0 real part", "src/dgsim/oracle.py",
     "1j, 0 - 1j))", "1j, -1j))",
     [ORACLE + "::test_pauli_tables_are_their_trace_definition"]),
    ("dense monomial scattered transposed", "src/dgsim/oracle.py",
     "out[np.arange(len(perm)), perm] = d", "out[perm, np.arange(len(perm))] = d",
     [ORACLE + "::test_majorana_is_the_kronecker_product"]),
    ("exp_quadratic term assigned, not added", "src/dgsim/oracle.py",
     "H += h[j, k] * _dense_monomial(n, (j, k))", "H = h[j, k] * _dense_monomial(n, (j, k))",
     [ORACLE + "::test_exp_quadratic_is_the_sum_of_dense_products"]),
    ("is_even parity without its low bit", "src/dgsim/oracle.py",
     "(_popcounts(_operator_lines(A)) & 1)", "_popcounts(_operator_lines(A))",
     [ORACLE + "::test_is_even_matches_dense_products_near_its_tolerance"]),
]


def copy_tree(dest):
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, part), os.path.join(dest, part),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def run_tests(tree, selection) -> int:
    """pytest's exit code for ``selection`` run in the copy ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def mutate(tree, path, old, new):
    """Apply one mutant to the copy; an error string if its old text is not there exactly once."""
    full = os.path.join(tree, path)
    with open(full, encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times in {path}"
    with open(full, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    return None


def main(argv) -> int:
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {sorted(unknown)}")
        return 1
    rows = [m for m in MUTANTS if not argv or m[0] in argv]
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        base = os.path.join(scratch, "base")
        copy_tree(base)
        selection = sorted({t for row in rows for t in row[4]})
        code = run_tests(base, selection)
        if code != 0:
            print(f"the unmutated tree fails its selections (pytest exit {code})")
            return 1
        for i, (name, path, old, new, tests) in enumerate(rows):
            tree = os.path.join(scratch, f"m{i}")
            copy_tree(tree)
            error = mutate(tree, path, old, new)
            if error is None:
                code = run_tests(tree, tests)
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            else:
                verdict = error
            shutil.rmtree(tree)
            results.append((name, path, verdict))
            print(f"{verdict:>10}  {name} ({path})", flush=True)
    failed = [r for r in results if r[2] != "killed"]
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write("### Mutation checks\n\n| mutant | file | verdict |\n| --- | --- | --- |\n")
            fh.writelines(f"| {name} | `{path}` | {verdict} |\n" for name, path, verdict in results)
    print(f"{len(results) - len(failed)} of {len(results)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
