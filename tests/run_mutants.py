"""Run the committed mutants of ``mutants.py`` and check that each is killed.

    python tests/run_mutants.py

The runner copies the repository, without ``.git`` and caches, into
``WORKERS`` temporary trees and works only there, one job per tree at a
time.  It first runs every named test on an unmutated tree, where each
must pass.  Then each row is one job: it applies the row's edit to a
tree, runs each of the row's test IDs in its own pytest subprocess, and
restores the file.  A mutant is killed when every one of its tests fails
(pytest exit status 1).

Exits 1 if a named test fails on the unmutated copy, if a mutant survives
(one of its tests passes), or if a run ends otherwise: no test collected,
an error during collection, or a timeout.  It needs nothing beyond pytest,
and pytest does not collect it: its name does not match ``test_*.py``.
"""

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per test ID
WORKERS = min(2, os.cpu_count() or 1)  # trees, each running one pytest at a time
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out"
)


def run_test(tree: Path, test_id: str) -> int:
    """pytest's exit status for one test ID in ``tree``, stopping at its
    first failing case; -1 on a timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test_id]
    try:
        return subprocess.run(
            command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return -1


def run_mutant(tree: Path, mutant) -> list:
    """Apply ``mutant``'s edit in ``tree``, run its tests and restore the
    file: the lines to print, the verdict first."""
    path = tree / mutant.file
    source = path.read_text(encoding="utf-8")
    if source.count(mutant.old) != 1:
        return [f"NOT APPLIED: {mutant.name}: its old text is not in {mutant.file} once"]
    path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        statuses = {t: run_test(tree, t) for t in mutant.tests}
    finally:
        path.write_text(source, encoding="utf-8")
    survivors = [t for t, s in statuses.items() if s == 0]
    errors = [f"{t} (exit {s})" for t, s in statuses.items() if s not in (0, 1)]
    verdict = "SURVIVED" if survivors else "ERROR" if errors else "killed"
    return [f"{verdict}: {mutant.name}"] + [f"    {line}" for line in survivors + errors]


def main() -> int:
    tic = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(WORKERS) as pool:
        trees = queue.SimpleQueue()  # the unmutated trees no job holds
        for i in range(WORKERS):
            tree = Path(tmp) / f"tree{i}"
            shutil.copytree(ROOT, tree, ignore=IGNORED)
            trees.put(tree)

        def in_a_tree(job, arg):
            tree = trees.get()
            try:
                return job(tree, arg)
            finally:
                trees.put(tree)

        test_ids = sorted({t for m in MUTANTS for t in m.tests})
        statuses = list(pool.map(lambda t: in_a_tree(run_test, t), test_ids))
        bad = 0
        for test_id, status in zip(test_ids, statuses):
            if status != 0:
                print(f"FAILS UNMUTATED (exit {status}): {test_id}")
                bad += 1
        print(f"unmutated: {len(test_ids) - bad} of {len(test_ids)} named tests pass")
        for lines in pool.map(lambda m: in_a_tree(run_mutant, m), MUTANTS):
            bad += not lines[0].startswith("killed:")
            print("\n".join(lines), flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} problems, {time.perf_counter() - tic:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
