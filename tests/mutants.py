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
        "    return within(lhs, rhs, float(np.sum(np.square(M, out=M))))\n",
        "    return lhs <= rhs + 1e-9 * max(1.0, rhs)\n",
    ),
    (
        "comparator turns dense at k * one_count, not at the fits' width",
        "src/maskedlra/solver.py",
        "    if width < min(M.shape):\n",
        "    if k * P.one_count < min(M.shape):\n",
    ),
    (
        "verify_bicriteria accepts any spec",
        "src/maskedlra/solver.py",
        "    elif np.array_equal(protocols.target_bitmap(spec), W.bitmap):\n",
        "    elif True:\n",
    ),
    (
        "a patterned mask keeps its closed form under any spec",
        "src/maskedlra/solver.py",
        "    if spec == own:\n",
        "    if own is not None:\n",
    ),
    (
        "large-matrix residual unchecked",
        "src/maskedlra/linalg.py",
        "    if abs(res - tail) > _RESIDUAL_RTOL * total:\n",
        "    if False:\n",
    ),
    (
        "verify_bicriteria k and eps unchecked",
        "src/maskedlra/solver.py",
        "    masks._check_k_eps(k, eps)\n",
        "",
    ),
    (
        "striped loop returns only the calling thread's share",
        "src/maskedlra/protocols.py",
        "        out += f.result()\n",
        "        f.result()\n",
    ),
    (
        "target_bitmap runs the hashed decision",
        "src/maskedlra/protocols.py",
        "_decide(spec, _grid(spec), None, codes=False)",
        "_decide(spec, _grid(spec), _shared_keys(spec, 0, _order(spec)), codes=False)",
    ),
    (
        "unhashed greater-than decision outputs a >= b",
        "src/maskedlra/protocols.py",
        "np.greater(a, b) if direction",
        "np.greater_equal(a, b) if direction",
    ),
    (
        "rectangles built eagerly as a list",
        "src/maskedlra/protocols.py",
        "        return _Rectangles(self.boxes)\n",
        "        return list(_Rectangles(self.boxes))\n",
    ),
    (
        "per-round walk hashes with the root's key every round",
        "src/maskedlra/protocols.py",
        "            k, d = key[r], drop.take(node)\n",
        "            k, d = key[0], drop.take(node)\n",
    ),
    (
        "banded-gt sampler walks call 2 where call 1 said yes",
        "src/maskedlra/protocols.py",
        "            no = np.flatnonzero(o1 == 0)\n",
        "            no = np.flatnonzero(o1 <= 1)\n",
    ),
    (
        "packed walk's output drops the column-bit term",
        "src/maskedlra/protocols.py",
        "            np.bitwise_and(reach, col_sel[i], out=tmp)\n",
        "            np.copyto(tmp, reach)\n",
    ),
    (
        "grouping keys drop the cell position",
        "src/maskedlra/protocols.py",
        "    rows += np.arange(shape[-1])\n    rows += np.arange(0, size, shape[-1])[:, None]\n",
        "",
    ),
    (
        "linalg imports ARPACK at module level",
        "src/maskedlra/linalg.py",
        "import numpy as np\n",
        "import numpy as np\nimport scipy.sparse.linalg\n",
    ),
    (
        "block_index_map skips the partition check",
        "src/maskedlra/masks.py",
        "    _check_partition(blocks, n, field)\n",
        "",
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
