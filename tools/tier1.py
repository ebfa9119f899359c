"""Tier-1 verdict: run the whole test suite and exit 0 only when the failing
tests are exactly the five by-design acceptance failures and nothing errors.

    python tools/tier1.py

Otherwise it exits 1 and names each unexpected failure or error, and each
by-design test that now passes: that one passing means a reference table,
tolerance or gate it asserts was edited. Either way it prints the pass count,
the suite's wall time and, sorted, the short-summary line of each by-design
failure (`FAILED <test> - AssertionError: <first line of its message>`), so
the output of two checkouts diffs to show whether those messages changed.
"""

import os
import re
import subprocess
import sys
import time

# Acceptance criteria 2, 3, 4, 5 and 8 assert published values that the
# paper's own formulas do not meet; the README gives each one's reason.
BY_DESIGN = {
    f"tests/test_acceptance.py::test_criterion_{name}"
    for name in ("2_table2_reproduction", "3_table3_reproduction", "4_constants", "5_bound_ordering_chain", "8_figure_envelope")
}

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a wide COLUMNS keeps pytest from cutting each short-summary line at the terminal width
env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ("src", os.environ.get("PYTHONPATH")))), COLUMNS="100000")
start = time.perf_counter()
run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors"],
                     cwd=root, env=env, capture_output=True, text=True)
summary = re.findall(r"^(FAILED (\S+).*)$", run.stdout, re.M)
failed = {test for _, test in summary}
errors = set(re.findall(r"^ERROR (\S+)", run.stdout, re.M))
passed = re.search(r"(\d+) passed", run.stdout)
wall = time.perf_counter() - start
print(f"{passed[1] if passed else 0} passed, {len(failed)} failed, {len(errors)} errors in {wall:.1f} s")
print("\n".join(sorted(line for line, test in summary if test in BY_DESIGN)))
problems = [f"unexpected failure: {t}" for t in sorted(failed - BY_DESIGN)]
problems += [f"error: {t}" for t in sorted(errors)]
problems += [f"by-design failure now passes: {t}" for t in sorted(BY_DESIGN - failed)]
if run.returncode not in (0, 1):
    problems.append(f"pytest exited {run.returncode}:\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
print("\n".join(problems) or "tier-1 ok: only the five by-design acceptance failures")
sys.exit(1 if problems else 0)
