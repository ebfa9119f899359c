"""Check the pinned outputs that no golden holds: two all-column dB sweeps
and one Monte-Carlo bit count.

    python tools/pinned.py

Each step runs in a new interpreter on this checkout's src/:
- `sweep --start -10 --stop 30.5 --step 4e-4 --scale db` over all 19
  columns, to stdout (101,251 rows), against its md5;
- the 10^6-row `sweep --start -10 --stop 30 --step 4e-5 --scale db` over
  all 19 columns, written with `--out`, against its md5;
- `simulate(McConfig(SnrPoint.from_db(3.0), 10**7, 42)).bit_errors`, with
  `montecarlo._workers` patched to 1, 2 and 3, against its count.

It prints each step's wall time and peak RSS, and exits 0 when every
output matches its pin; otherwise it exits 1 and names each mismatch.
It takes about 5 s and 0.8 GB of memory, so Tier-1 does not run it.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time

root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (os.path.join(root, "src"), os.environ.get("PYTHONPATH")))))
SWEEP = ["sweep", "--scale", "db", "--start", "-10", "--cols",
         "exact,l1,l2,u1,u2,u3,ber1,ber2,ber3,ber4,ber5,ber6,ber7,eps5,eps6,eps7,w5,w6,w7"]
CLI = "from dqpskber.cli import main\ncode = main(sys.argv[1:])"
MC = """from dqpskber import McConfig, SnrPoint, montecarlo, simulate
montecarlo._workers = lambda: int(sys.argv[1])
print(simulate(McConfig(SnrPoint.from_db(3.0), 10**7, 42)).bit_errors)
code = 0"""


def md5(stream) -> str:
    """The md5 of a binary stream, read 1 MiB at a time.

    This process stays small so its peak RSS does not show in a child's:
    a child started by vfork (as subprocess does on Linux) reports the
    larger of its own peak and its parent's."""
    digest = hashlib.md5()
    for block in iter(lambda: stream.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest()


def check(name: str, pinned: str, body: str, args: list[str], read) -> list[str]:
    """Run `body` with `args` in a new interpreter, print its wall time and
    peak RSS, and compare `read(process)` with `pinned`; the mismatch, if
    any. `body` sets `code`, the child's exit status."""
    code = f"import resource, sys\n{body}\nsys.stdout.flush()\nif code:\n    sys.exit(code)\n"
    code += "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, *args], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as process:
        got = read(process)
        err = process.stderr.read().decode().splitlines() or ["no output"]
    wall = time.perf_counter() - start
    if process.returncode == 0:
        peak = f"{int(err[-1]) / 1024:.0f} MB"  # ru_maxrss is in KiB on Linux
    else:
        got, peak = f"exit {process.returncode}, {err[-1]}", "-"
    print(f"{'ok' if got == pinned else 'MISMATCH'}  {name}: {wall:.2f} s, peak RSS {peak}")
    return [] if got == pinned else [f"{name}: got {got}, pinned {pinned}"]


if __name__ == "__main__":
    problems = check("sweep --step 4e-4 to stdout", "b7dba78ac5c941ab474ff2aff5bf0fd7", CLI,
                     [*SWEEP, "--stop", "30.5", "--step", "4e-4"], lambda process: md5(process.stdout))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")

        def read_out(process) -> str:
            if process.wait():
                return "no file"
            with open(out, "rb") as f:
                return md5(f)

        problems += check("sweep --step 4e-5 with --out", "793f9a48813ae7a6524e4f511bf2fbd5", CLI,
                          ["--out", out, *SWEEP, "--stop", "30", "--step", "4e-5"], read_out)
    for workers in (1, 2, 3):
        problems += check(f"simulate at 3 dB, 10^7 symbols, {workers} workers", "1436948", MC, [str(workers)],
                          lambda process: process.stdout.read().decode().strip())
    print("\n".join(problems) or "pinned ok: every output matches its pin")
    sys.exit(1 if problems else 0)
