"""Mutation check: every mutant listed here must make the tier-1 tests fail.

Run from anywhere with the test dependencies installed:

    python tests/mutants.py

For each mutant the tree is copied to a temporary directory and one exact
textual replacement is applied there; a replacement that does not match
exactly once is an error. The tier-1 command then runs in the copy with -x.
A mutant the tests survive is an error, and so is an unmutated copy that
does not pass. Only the standard library is used, and pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, exact text, replacement)
MUTANTS = (
    (
        "verify_bicriteria always satisfied",
        "src/maskedlra/solver.py",
        "satisfied=within(cost, rhs_of(terms), mass)",
        "satisfied=True",
    ),
    (
        "verify_nondet_bound always satisfied",
        "src/maskedlra/boolean.py",
        "satisfied=within(cost, rhs_of(terms), 0),",
        "satisfied=True,",
    ),
    (
        "verify_tensor_bicriteria always satisfied",
        "src/maskedlra/tensor.py",
        "satisfied=within(cost, comp_cost, mass) and within(cost, rhs_of(terms), mass),",
        "satisfied=True,",
    ),
    (
        "eps1 coefficient 4 * eps",
        "src/maskedlra/solver.py",
        '("eps1", 2 * eps if spec.delta > 0 else 0.0, mass)',
        '("eps1", 4 * eps if spec.delta > 0 else 0.0, mass)',
    ),
    (
        "verify_structural_bicriteria always satisfied",
        "src/maskedlra/structural.py",
        "satisfied=within(cost, rhs_of(terms), 0.0),",
        "satisfied=True,",
    ),
    (
        "verify_structural_bicriteria tolerance 1e-9 * max(1, rhs)",
        "src/maskedlra/structural.py",
        "satisfied=within(cost, rhs_of(terms), 0.0),",
        "satisfied=cost <= rhs_of(terms) + 1e-9 * max(1.0, rhs_of(terms)),",
    ),
    (
        "chain_inequality_check tolerance 1e-9 * max(1, rhs)",
        "src/maskedlra/solver.py",
        "    return within(lhs, rhs, float(np.sum(M * M)))\n",
        "    return lhs <= rhs + 1e-9 * max(1.0, rhs)\n",
    ),
    (
        "verify_bicriteria accepts any spec",
        "src/maskedlra/solver.py",
        "    if not computes:\n",
        "    if False:\n",
    ),
    (
        "large-matrix residual unchecked",
        "src/maskedlra/linalg.py",
        "    if abs(res - tail) > _RESIDUAL_RTOL * total:\n",
        "    if False:\n",
    ),
    (
        "explicit-mask k and eps unchecked",
        "src/maskedlra/solver.py",
        "        masks._check_k_eps(k, eps)\n",
        "",
    ),
    (
        "striped loop returns only the calling thread's share",
        "src/maskedlra/protocols.py",
        "        out += f.result()\n",
        "        f.result()\n",
    ),
    (
        "report passes a sweep that runs no cell",
        "src/maskedlra/cli.py",
        "    if not report.rows:\n",
        "    if False:\n",
    ),
)

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".benchmarks", ".perfbench_tmp", "*.egg-info",
)


def run_tier1(tree: Path) -> int:
    """The tier-1 command's exit code in tree, importing maskedlra from its src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    print(done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "(no output)")
    return done.returncode


def copy_tree(tmp: Path) -> Path:
    tree = tmp / "tree"
    shutil.rmtree(tree, ignore_errors=True)
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def check_applies(path: str, old: str) -> None:
    found = (ROOT / path).read_text().count(old)
    if found != 1:
        raise SystemExit(f"{path}: {old!r} matches {found} times, not once")


def main() -> int:
    for _, path, old, _ in MUTANTS:
        check_applies(path, old)
    failures = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        print("unmutated:", end=" ", flush=True)
        if run_tier1(copy_tree(Path(tmp))) != 0:
            failures.append("the unmutated tree does not pass")
        for name, path, old, new in MUTANTS:
            print(f"{name}:", end=" ", flush=True)
            tree = copy_tree(Path(tmp))
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            # exit code 1: a test failed; anything else did not run the tests
            code = run_tier1(tree)
            if code == 0:
                failures.append(f"survived: {name}")
            elif code != 1:
                failures.append(f"{name}: pytest exited with {code}")
    for line in failures:
        print("ERROR:", line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
