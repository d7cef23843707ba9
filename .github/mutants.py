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
    ("band widening", "src/dgsim/simulator.py",
     "hi[L:e] = [b + 1] * (e - L)", "hi[L:e] = [b] * (e - L)",
     [FOLD]),
    ("band widening of later rows", "src/dgsim/simulator.py",
     "lo[s:H] = [a] * (H - s)", "lo[s:H] = [a + 1] * (H - s)",
     [FOLD]),
    ("band low of the gate's rows", "src/dgsim/simulator.py",
     "lo[a:b + 1] = [L] * (b + 1 - a)", "lo[a:b + 1] = [L + 1] * (b + 1 - a)",
     [FOLD]),
    ("band high of the gate's rows", "src/dgsim/simulator.py",
     "hi[a:b + 1] = [H] * (b + 1 - a)", "hi[a:b + 1] = [H - 1] * (b + 1 - a)",
     [FOLD]),
    ("band skip guard", "src/dgsim/simulator.py",
     "if lo[b] != L or hi[a] != H:", "if lo[b] != L and hi[a] != H:",
     [FOLD]),
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
    ("plain gate list type check", "src/dgsim/serialization.py",
     "set(map(type, flat)) <= {int}", "set(map(type, flat)) <= {int, bool}",
     ["tests/test_parse_reference.py"]),
    ("carrier_state block loop", "src/dgsim/state.py",
     "            if j > i:\n", "            if j > i + b:\n",
     [FOLD]),
    ("Bloch-rule fallback", "src/dgsim/simulator.py",
     "check = not len(blochs) * (norms.max(initial=1.0) - 1.0) <= ADMISSIBILITY_TOL", "check = False",
     ["tests/test_simulator.py"]),
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
