"""Set-up timing in fresh interpreters, and the per-call kernel probe.

The kernel probe times single calls of the layers named in the ROADMAP
"Baseline" table at the fixed SNR set (linear 1, 3, 12; 20 dB; 30 dB)
and prints that table. Its numbers are per-layer metrics only.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_TIMEOUT_S = 60

PROBE_SNRS = (("lin1", "linear", 1.0), ("lin3", "linear", 3.0), ("lin12", "linear", 12.0), ("20db", "db", 20.0), ("30db", "db", 30.0))
PACKAGES = ("numpy", "scipy", "dqpskber")


def _run_child(root: Path, detail: bool) -> subprocess.CompletedProcess:
    argv = [sys.executable]
    if detail:
        argv += ["-X", "importtime"]
    argv += [str(HERE / "setup_child.py"), str(root / "src")] + (["--detail"] if detail else [])
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return proc


def setup_seconds(root: Path, runs: int) -> list[float]:
    """Wall time of `runs` fresh interpreters, after one untimed warm run
    that fills the byte-code caches."""
    _run_child(root, detail=False)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        _run_child(root, detail=False)
        times.append(time.perf_counter() - t0)
    return times


def import_breakdown(stderr: str) -> dict[str, float]:
    """Self import time in ms per top-level package from `-X importtime` output."""
    totals = dict.fromkeys(PACKAGES + ("other",), 0.0)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals[top if top in totals else "other"] += int(self_us) / 1000.0
    return totals


def setup_detail(root: Path, runs: int) -> dict[str, float]:
    """Medians over `runs` fresh interpreters of the per-package import time
    and the first calls of exact_ber and solve_rho0, all in ms."""
    samples: dict[str, list[float]] = {}
    for _ in range(runs):
        proc = _run_child(root, detail=True)
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {f"setup.import.{k}_ms": v for k, v in import_breakdown(proc.stderr).items()}
        values["setup.import_ms"] = child["import_s"] * 1e3
        values["setup.first_exact_ber_ms"] = child["exact_ber_s"] * 1e3
        values["bounds.solve_rho0.first_call_ms"] = child["solve_rho0_s"] * 1e3
        for key, value in values.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(v) for key, v in samples.items()}


def per_call_seconds(fn, *args, repeats: int, batch_s: float) -> float:
    """Median over `repeats` batches of the per-call time of fn(*args);
    the batch size is doubled until one batch takes at least `batch_s`."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        elapsed = time.perf_counter() - t0
        if elapsed >= batch_s or n >= 1 << 16:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn(*args)
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def kernel_probe(package, repeats: int = 5, batch_s: float = 0.01) -> dict[str, float]:
    """Per-call medians in microseconds (ms for cmd_table), keyed by metric name."""
    out = {}
    specfun = package.specfun
    for label, x in (("x8_5", 8.5), ("x30", 30.0)):
        out[f"probe.bessel_i0_scaled.{label}_us"] = per_call_seconds(specfun.bessel_i0_scaled, x, repeats=repeats, batch_s=batch_s) * 1e6
    for label, scale, value in PROBE_SNRS:
        snr = package.SnrPoint.from_db(value) if scale == "db" else package.SnrPoint.from_linear(value)
        p = package.channel_params(snr)
        for name, fn, args in (
            ("marcum_q_quad", specfun.marcum_q_quad, (p.a, p.b)),
            ("marcum_q_series", specfun.marcum_q_series, (p.a, p.b)),
            ("exact_ber", package.exact_ber, (snr,)),
            ("bound_set", package.bound_set, (snr,)),
            ("approx_set", package.approx_set, (snr,)),
        ):
            out[f"probe.{name}.{label}_us"] = per_call_seconds(fn, *args, repeats=repeats, batch_s=batch_s) * 1e6
    out["probe.cmd_table1_ms"] = per_call_seconds(package.cli.cmd_table, 1, repeats=repeats, batch_s=batch_s) * 1e3
    return out


def baseline_table(probe: dict[str, float]) -> str:
    """The ROADMAP "Baseline" rows as a markdown table, one column per SNR."""
    labels = [label for label, _, _ in PROBE_SNRS]
    lines = [
        "| What | " + " | ".join(labels) + " |",
        "|---|" + "---|" * len(labels),
    ]
    for name in ("marcum_q_quad", "marcum_q_series", "exact_ber", "bound_set", "approx_set"):
        cells = [f"{probe[f'probe.{name}.{label}_us']:.4g} µs" for label in labels]
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    lines.append(
        f"| `bessel_i0_scaled` | x=8.5: {probe['probe.bessel_i0_scaled.x8_5_us']:.3g} µs; "
        f"x=30: {probe['probe.bessel_i0_scaled.x30_us']:.3g} µs |" + " |" * (len(labels) - 1)
    )
    lines.append(f"| `cmd_table(1)` | {probe['probe.cmd_table1_ms']:.4g} ms |" + " |" * (len(labels) - 1))
    return "\n".join(lines)
