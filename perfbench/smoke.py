"""Smoke test of the benchmark itself: `python3 perfbench/smoke.py`.

Runs a tiny configuration of every workload, untraced and traced, and
checks that every metric BENCHMARK.json names is emitted. Checks that
the correctness checks fire on deliberately perturbed outputs, and that
the command fails without a result outside a checkout.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import shutil
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "sweep-wide": dataclasses.replace(WORKLOADS["sweep-wide"], op_set=4),
    "sweep-closed": dataclasses.replace(WORKLOADS["sweep-closed"], rows=11, op_set=4),
    "mc": dataclasses.replace(WORKLOADS["mc"], symbols=10**5),
}


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_every_metric_emitted(package, tmpdir: str) -> None:
    run.SETUP_RUNS = run.SETUP_DETAIL_RUNS = 1
    run.probe.kernel_probe = functools.partial(run.probe.kernel_probe, repeats=1, batch_s=0.0)
    for name, workload in TINY.items():
        values, details = run.measure(workload, package, 7, 0.3, tmpdir)
        missing = names("end_to_end") - set(values)
        assert not missing, f"{name} untraced run lacks {missing}"
        assert all(values[m] > 0 for m in names("end_to_end")), f"{name}: zero end-to-end metric {values}"
        assert details["summary"]["correct"], details["summary"]["violations"]
        values, details = run.measure_traced(workload, package, 7, tmpdir)
        missing = names("per_layer") - set(values)
        assert not missing, f"{name} traced run lacks {missing}"
        assert details["summary"]["correct"], details["summary"]["violations"]
        print(f"ok   {name}: all {len(SPEC['end_to_end'])} end-to-end and {len(SPEC['per_layer'])} per-layer metrics")


def test_traced_counts(package, tmpdir: str) -> None:
    values, _ = run.measure_traced(TINY["sweep-wide"], package, 7, tmpdir)
    assert values["bounds.bound_set.calls_per_row"] == 7.0, values["bounds.bound_set.calls_per_row"]
    assert values["bounds.exact_ber.calls_per_row"] == 1.0, values["bounds.exact_ber.calls_per_row"]
    again, _ = run.measure_traced(TINY["sweep-wide"], package, 7, tmpdir)
    for key in values:
        if key.endswith((".calls", "calls_per_row", "calls_per_marcum_q", "nonpositive")):
            assert values[key] == again[key], f"{key}: {values[key]} then {again[key]}"
    print("ok   traced call counts repeat exactly; bound_set 7 and exact_ber 1 per row")


def test_main_prints_result(package) -> None:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "sweep-closed", "--seed", "3", "--seconds", "0.3", "--trace", "0"])
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert set(result["metrics"]) == names("end_to_end"), result["metrics"]
    for line in ("rows_per_s", "msym_per_s", "fail_frac", "op_tail_ms"):
        assert any(row.startswith(line) for row in stdout.getvalue().splitlines()), line
    print("ok   the command prints every metric by name and ends with the JSON result")


def _sweep(package, columns: list[str]) -> tuple[str, list[float]]:
    start, stop, step = 1.0, 3.0, 0.5
    return package.cli.cmd_sweep(start, stop, step, "db", columns), [start + i * step for i in range(5)]


def _perturb(text: str, row: int, column: int, value: float) -> str:
    lines = text.split("\n")
    fields = lines[row + 1].split(",")
    fields[column + 1] = f"{value:.5e}"
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines)


def test_checks_fire(package, tmpdir: str) -> None:
    columns = list(TINY["sweep-wide"].columns)
    text, grid = _sweep(package, columns)
    rows, problems = checks.check_sweep(text, columns, "db", grid)
    assert not problems, problems
    col = {c: i for i, c in enumerate(columns)}
    exact_above_u2 = _perturb(text, 2, col["exact"], rows[2]["u2"] * 1.01)
    assert any("exact=" in p and "> u2=" in p for p in checks.check_sweep(exact_above_u2, columns, "db", grid)[1])
    bad_midpoint = _perturb(text, 1, col["ber1"], rows[1]["ber1"] * 1.001)
    assert any("ber1=" in p for p in checks.check_sweep(bad_midpoint, columns, "db", grid)[1])
    bad_weight = _perturb(text, 0, col["w5"], 1.5)
    assert any("w5=" in p for p in checks.check_sweep(bad_weight, columns, "db", grid)[1])
    assert checks.check_sweep(text, columns, "db", grid[:-1])[1], "a missing grid point must be reported"

    gamma = 10.0 ** (grid[3] / 10.0)
    assert not checks.check_row_against_oracle(gamma, rows[3])
    nudged = dict(rows[3], exact=rows[3]["exact"] * (1 + 2e-5))
    assert any(p.split(": ", 1)[1].startswith("exact=") for p in checks.check_row_against_oracle(gamma, nudged))

    # The same perturbation, written by the CLI itself, fails the operation.
    sweep = TINY["sweep-wide"]
    op = {"start": 1.0, "stop": 3.0, "step": 0.5, "count": 5, "pick": 0}
    original = package.cli.cmd_sweep
    package.cli.cmd_sweep = lambda *args: exact_above_u2
    try:
        result = sweep.run(package, op, tmpdir, {})
    finally:
        package.cli.cmd_sweep = original
    assert result.failure and result.failure.startswith("check:") and result.work == 0, result
    assert not sweep.run(package, op, tmpdir, {}).failure

    mc = TINY["mc"]
    refs = mc.prepare(package)
    config = package.McConfig(package.SnrPoint.from_db(3.0), mc.symbols, 11)
    good = package.simulate(config)
    assert not checks.check_mc(good, mc.symbols, refs[3.0])
    short = dataclasses.replace(good, bits_sent=good.bits_sent - 2)
    assert any("bits_sent" in p for p in checks.check_mc(short, mc.symbols, refs[3.0]))
    far = 2 * good.bits_sent * refs[3.0]
    off = dataclasses.replace(good, ber_estimate=far / good.bits_sent, bit_errors=int(far))
    assert any("SE from" in p for p in checks.check_mc(off, mc.symbols, refs[3.0]))
    print("ok   checks fire on perturbed sweep rows, oracle values and Monte-Carlo results")


def test_failing_windows_fixed() -> None:
    """Every seed gives sweep-wide the same number of windows that reach
    31 dB, and none near it, so `attempted` and `failed` repeat."""
    wide = WORKLOADS["sweep-wide"]
    for seed in range(20):
        stops = [op["stop"] for op in islice(wide.inputs(seed), wide.op_set)]
        assert sum(stop >= 31.0 for stop in stops) == 14, seed
        assert not any(30.5 < stop < 31.5 for stop in stops), seed
        assert all(-10.0 <= stop - 10.0 and stop <= 40.0 for stop in stops), seed
    print("ok   sweep-wide has 14 of 64 windows beyond 31 dB on every seed")


def test_fails_outside_checkout(tmpdir: str) -> None:
    bare = Path(tmpdir) / "bare"
    bare.mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"ok   without src/ the command exits {proc.returncode} and prints no result")


def main() -> int:
    package = run.load_package()
    out_dir = run.ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=out_dir, prefix="smoke-")
    try:
        test_checks_fire(package, tmpdir)
        test_failing_windows_fixed()
        test_fails_outside_checkout(tmpdir)
        test_every_metric_emitted(package, tmpdir)
        test_traced_counts(package, tmpdir)
        test_main_prints_result(package)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
