"""Fail when a pinned result digest moves without a cache schema bump.

    python3 scripts/driftlock.py BASE

Results are cached by their inputs, not by the code that computed them, so a
change that moves a simulation result without bumping ``CACHE_SCHEMA_VERSION``
(``src/repro/runtime/jobs.py``) lets every warm cache serve stale results.
``tests/test_result_lock.py`` pins result digests in its ``RESULTS``,
``DESIGNS`` and ``DSE`` literals.  This reads them, and the version, at the
git revision ``BASE`` and in the worktree: each pin that changed or vanished
while the version stayed prints one line, and the exit status is 1.  New pins
pass.  The operand pins (``MATRICES``, ``WIDE``) are not covered: they move
with how operands are hashed while no result moves.
"""

import argparse
import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOCK = "tests/test_result_lock.py"
JOBS = "src/repro/runtime/jobs.py"
PINS = ("RESULTS", "DESIGNS", "DSE")
VERSION = "CACHE_SCHEMA_VERSION"


def literals(text, names):
    """The module-level ``NAME = <literal>`` assignments of ``text`` among ``names``."""
    found = {}
    for node in ast.parse(text).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in names
        ):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found


def check(base_lock, base_jobs, lock, jobs):
    """One ``PIN case: ...`` line per result pin moved without a version bump,
    from the texts of the lock test and the jobs module at the base and now."""
    if literals(base_jobs, {VERSION}).get(VERSION) != literals(jobs, {VERSION}).get(VERSION):
        return []
    before, after = literals(base_lock, PINS), literals(lock, PINS)
    failures = []
    for pin in PINS:
        now = after.get(pin, {})
        for case, digest in before.get(pin, {}).items():
            if now.get(case) != digest:
                failures.append(
                    f"{pin} {case}: pinned {digest}, now {now.get(case, 'gone')}, "
                    f"{VERSION} unchanged"
                )
    return failures


def show(base, path):
    """The text of ``path`` at revision ``base`` ("" where it does not exist)."""
    proc = subprocess.run(
        ["git", "show", f"{base}:{path}"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout if proc.returncode == 0 else ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="the git revision to compare the worktree with")
    args = parser.parse_args(argv)
    verify = ["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"]
    if subprocess.run(verify, cwd=ROOT, capture_output=True).returncode:
        print(f"driftlock: {args.base!r} is no commit")
        return 2
    failures = check(
        show(args.base, LOCK),
        show(args.base, JOBS),
        (ROOT / LOCK).read_text(),
        (ROOT / JOBS).read_text(),
    )
    print("\n".join(failures) or f"driftlock: the result pins hold against {args.base}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
