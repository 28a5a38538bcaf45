"""Scoped mutation checks: each listed mutant must make its named tests fail.

Usage:
    python3 tools/mutants.py [--rev REV]

``git archive`` unpacks REV (default HEAD), a commit or a tree of this
repository, into a temporary directory, as ``tools/bench_pairs.py`` does, so
only committed or staged files are mutated: ``--rev $(git write-tree)``
mutates the staged tree.  The mutants file ``tools/mutants.json`` is a JSON list of objects with a ``name``, a ``file`` relative to the repository
root, an ``old`` text that must occur exactly once in it, the ``new`` text
that replaces it, and the ``tests`` (pytest ids) expected to fail.

The named tests of every mutant first run once on the unmutated tree, and
must pass there.  Then each mutant is applied alone, its tests run with
``python -m pytest -x`` under ``PYTHONPATH=src`` and a 300 s timeout, and the
file is restored.  No run writes bytecode: a cached ``.pyc`` is checked only
against its source's size and whole-second mtime, so a same-size mutant
written and restored within a second would otherwise leak into later runs.  A mutant is killed when its tests fail or time out, and
survives when they pass; a missing or repeated old text, or a pytest run
that collects no test, is an error.  Every pytest run starts in a session of
its own, and a timed-out run's whole process group is killed.

Prints one line per mutant and a total; exits 1 if the baseline fails or a
mutant survives or errs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import suppress
from pathlib import Path
from typing import List, Sequence

from bench_pairs import ROOT, unpack

FIELDS = ("name", "file", "old", "new", "tests")
# pytest exit codes: 1 tests failed, 2 interrupted (a collection error among
# them); 3 internal error, 4 usage error and 5 no test collected are errors
FAILED = (1, 2)
STATUS = {"failed": "killed", "timeout": "killed (timeout)", "passed": "survived"}
MUTANTS = ROOT / "tools" / "mutants.json"
TIMEOUT = 300.0  # seconds per pytest run


def load(path: Path) -> List[dict]:
    """The mutants of a JSON file; each must hold exactly ``FIELDS``."""
    mutants = json.loads(path.read_text(encoding="utf-8"))
    for mutant in mutants:
        if sorted(mutant) != sorted(FIELDS) or not mutant["tests"]:
            raise ValueError(f"a mutant needs the fields {FIELDS} and some tests: {mutant}")
    return mutants


def run_tests(tree: Path, tests: Sequence[str], timeout: float) -> str:
    """'passed', 'failed', 'timeout' or 'error: ...' for one pytest run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except BaseException as exc:  # a timeout or Ctrl-C ends the run's whole group
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return "timeout"
    if code == 0:
        return "passed"
    return "failed" if code in FAILED else f"error: pytest exit code {code}"


def check(tree: Path, mutants: Sequence[dict], timeout: float) -> List[dict]:
    """Apply each mutant alone to ``tree`` and run its tests; one result per mutant.

    A result holds the mutant's name, its status (killed, survived or an
    error) and the seconds its run took.
    """
    results = []
    for mutant in mutants:
        path = tree / mutant["file"]
        start = time.monotonic()
        original = path.read_text(encoding="utf-8") if path.is_file() else ""
        found = original.count(mutant["old"])
        if found != 1:
            status = f"error: old text found {found} times in {mutant['file']}"
        else:
            path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            try:
                outcome = run_tests(tree, mutant["tests"], timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            status = STATUS.get(outcome, outcome)
        results.append({"name": mutant["name"], "status": status,
                        "seconds": round(time.monotonic() - start, 1)})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="git revision to mutate (default HEAD)")
    args = parser.parse_args(argv)

    mutants = load(MUTANTS)
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        commit = unpack(args.rev, tree)
        tests = sorted({test for m in mutants for test in m["tests"]})
        baseline = run_tests(tree, tests, TIMEOUT)
        print(f"{(commit or args.rev)[:12]}: baseline of {len(tests)} test ids {baseline}")
        if baseline != "passed":
            return 1
        results = check(tree, mutants, TIMEOUT)
    for result in results:
        print(f"{result['seconds']:>6.1f}s  {result['name']}: {result['status']}")
    killed = sum(r["status"].startswith("killed") for r in results)
    print(f"mutants {len(results)}, killed {killed}, "
          f"seconds {time.monotonic() - start:.0f}")
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
