"""Re-run the committed mutants: each one must make the tier-1 suite fail.

    python3 mutants/run.py

Each entry of ``mutants.json`` names a ``file`` of the repository, ``old``
text that occurs in it exactly once, the ``new`` text that replaces it,
and ``named_in``, the commit whose CHANGES.md entry first recorded the
mutant (null for one first recorded in this file). The repository is
copied once to a temporary directory, without ``.git`` and caches. The
unmutated copy must pass tier-1, and its wall time sets each mutant's time
limit: ``LIMIT_FACTOR`` times as long. Then each mutant in turn is applied
to the copy, tier-1 runs there with ``-x -q``, and the file is restored.
Tier-1's files run in name order, but ``tests/test_acceptance.py`` last:
its preset sweeps are the slowest tests, so a mutant that makes a kernel
slow fails a quicker file's test before it can run out of time. A
mutant is caught when pytest exits 1, or when it runs out of time (printed
``TIMEOUT``): the unmutated suite finishes well inside the limit, so a
mutant that makes it run longer has changed what the code does. Exits 1 if
a mutant survives or its old text does not occur exactly once. Standard
library only, besides the test suite's own needs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", ".perfbench-*")
ACCEPTANCE = "tests/test_acceptance.py"  # run last
# a mutant's tier-1 run may take this many times the unmutated run's wall time
LIMIT_FACTOR = 3


def tier1(copy: Path, limit: float | None = None) -> tuple[int | None, str]:
    """pytest's exit code in ``copy`` and the first test it failed, else the
    last line it printed; None for the code when ``limit`` seconds pass
    first, and pytest is killed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    files = sorted((p.relative_to(copy).as_posix() for p in (copy / "tests").glob("test_*.py")),
                   key=lambda name: (name == ACCEPTANCE, name))
    try:
        done = subprocess.run(TIER1 + files, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return None, f"no result within the {limit:.0f} s limit"
    lines = (done.stdout + done.stderr).strip().splitlines() or [""]
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, (failed or lines[-1:])[0][:160]


def main() -> int:
    mutants = json.loads((ROOT / "mutants" / "mutants.json").read_text())
    bad = [m["name"] for m in mutants if (ROOT / m["file"]).read_text().count(m["old"]) != 1]
    for name in bad:
        print(f"MISSING   {name}: its old text does not occur exactly once")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        start = time.perf_counter()
        code, last = tier1(copy)
        if code != 0:
            print(f"the unmutated copy fails tier-1 (exit {code}): {last}")
            return 1
        limit = LIMIT_FACTOR * (time.perf_counter() - start)
        print(f"unmutated tier-1 passes; each mutant may take {limit:.0f} s")
        for m in mutants:
            if m["name"] in bad:
                continue
            path = copy / m["file"]
            source = path.read_text()
            path.write_text(source.replace(m["old"], m["new"]))
            start = time.perf_counter()
            try:
                code, last = tier1(copy, limit)
            finally:
                path.write_text(source)
            verdict = {1: "caught", 0: "SURVIVED", None: "TIMEOUT"}.get(code, f"ERROR {code}")
            print(f"{verdict:9} {m['name']} ({time.perf_counter() - start:.1f} s): {last}")
            if code not in (1, None):
                bad.append(m["name"])
    print(f"{len(mutants) - len(bad)} of {len(mutants)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
