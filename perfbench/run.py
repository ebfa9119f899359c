"""dqpsk-ber benchmark: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. One caller in one process drives the package in a
closed loop, each operation starting when the previous one has returned
and been checked. The last line of stdout is the JSON result; the lines
before it print every metric by name and unit, and a copy of everything
with the machine and inputs goes to `.perfbench-out/results/`.

--trace 0 measures the end-to-end metrics for --seconds. --trace 1 runs
the workload's input set once untraced and once traced, so that call
counts repeat exactly and the tracing overhead is measured, then runs
the kernel probe and the set-up breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from itertools import count, islice
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import probe  # noqa: E402
from tracing import KEYED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
SETUP_DETAIL_RUNS = 3
ORACLE_ROWS = 3
TRACED_ORACLE_ROWS = 1
# An input's latency is this percentile of its executions (see summarize).
INPUT_PERCENTILE = 90.0

# Functions whose self time is reported as a share of traced operation time.
SELF_SHARE = (
    "specfun.marcum_q", "specfun.marcum_q_quad", "specfun.bessel_i0_scaled",
    "specfun.e_fn", "specfun.E_fn", "bounds.exact_ber", "bounds.bound_set", "bounds.channel_params",
    "approx.ber1", "approx.ber2", "approx.ber3", "approx.ber4", "approx.ber5",
    "approx.ber6", "approx.ber7", "approx.omega5", "approx.omega6", "approx.omega7",
    "approx.relative_error", "approx.weighted_mean", "montecarlo.simulate", "cli.main",
    "cli.cmd_sweep", "cli._emit",
)
CALL_COUNTS = ("specfun.marcum_q", "specfun.bessel_i0_scaled", "specfun.e_fn", "specfun.E_fn")


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = p / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def load_package():
    """Import dqpskber from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "dqpskber" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'dqpskber'}; run from a dqpsk-ber checkout")
    sys.path.insert(0, str(src))
    import dqpskber
    import dqpskber.cli  # noqa: F401  (the package does not import its CLI)

    if Path(dqpskber.__file__).resolve().parent != (src / "dqpskber").resolve():
        sys.exit(f"error: imported dqpskber from {dqpskber.__file__}, not from {src}")
    return dqpskber


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine_info(package) -> dict:
    import mpmath
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dqpskber").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "dqpskber": package.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def run_ops(workload, package, ops, tmpdir: str, refs: dict, tracer: Tracer | None = None):
    results = []
    per_op_calls = []
    for op in ops:
        before = {name: tracer.calls(name) for name in KEYED} if tracer else None
        results.append(workload.run(package, op, tmpdir, refs))
        if tracer:
            useful = tracer.end_op()
            per_op_calls.append({name: (tracer.calls(name) - before[name], useful[name]) for name in before})
    return results, per_op_calls


def oracle_check(results: list, rng: np.random.Generator, k: int) -> None:
    """mpmath check of `k` seed-drawn rows from successful operations; a row
    that fails turns its operation into a failure."""
    candidates = [r for r in results if r.failure is None and r.sample is not None]
    if not candidates:
        return
    for i in sorted(rng.choice(len(candidates), size=min(k, len(candidates)), replace=False)):
        result = candidates[i]
        problems = checks.check_row_against_oracle(*result.sample)
        if problems:
            result.failure = "oracle: " + problems[0]
            result.violations = problems
            result.work = 0


def summarize(runs: list[list], tail_percentile: float) -> dict:
    """Metrics from the executions of each input (`runs[i]` holds input i's).

    An operation is one input of the run's set. It fails if any of its
    executions fails, so `attempted` and `failed` do not depend on how
    many rounds fit in the run. A successful input's latency is the 90th
    percentile of its executions, its work that of one execution.

    Why the 90th percentile: on a shared 2-vCPU virtual machine the same
    operation runs up to 1.8x faster in some 2 s stretches than in
    others, and CPU time tracks wall time, so it is not time off the CPU.
    The slow end of that range is the same from run to run; how much of a
    30 s run is spent nearer the fast end is not. Over 10 runs of
    `sweep-wide`, the IQR over median of op_p50_ms was 0.10 with the
    least of an input's executions, 0.30 with their median, 0.21 with
    their 75th percentile and 0.04 with their 90th.
    """
    results = [r for reps in runs for r in reps]
    latencies, work = [], 0
    failed_inputs = 0
    for reps in runs:
        if any(r.failure is not None for r in reps):
            failed_inputs += 1
            continue
        latencies.append(percentile(sorted(r.latency_s for r in reps), INPUT_PERCENTILE) * 1e3)
        work += reps[0].work
    failed_executions = sum(r.failure is not None for r in results)
    summary = {
        "attempted": len(runs),
        "failed": failed_inputs,
        "fail_frac": failed_inputs / len(runs),
        "executions": len(results),
        "failed_executions": failed_executions,
        "executions_per_input": len(results) / len(runs),
        "wall_work_per_s": sum(r.work for r in results if r.failure is None) / sum(r.latency_s for r in results),
        "failures": dict(Counter(r.failure for r in results if r.failure).most_common(10)),
        "violations": [v for r in results for v in r.violations][:20],
        "correct": not any(r.violations for r in results),
    }
    if latencies:
        summary["work_per_s"] = work / (sum(latencies) / 1e3)
        latencies.sort()
        tail = percentile(latencies, tail_percentile)
        summary.update(
            op_p50_ms=percentile(latencies, 50.0),
            op_tail_ms=tail,
            tail_beyond=sum(x > tail for x in latencies),
            latency_samples=len(latencies),
        )
    return summary


def measure(workload, package, seed: int, seconds: float, tmpdir: str) -> tuple[dict, dict]:
    setup = probe.setup_seconds(ROOT, SETUP_RUNS)
    refs = workload.prepare(package)
    workload.warm_up(package, tmpdir, refs)
    base = list(islice(workload.inputs(seed), workload.op_set))
    runs = [[] for _ in base]
    # Rounds over all inputs until the time is up, after at least one full
    # round, so that each input's executions spread over the run. Each
    # round takes a fresh seeded order, so that periodic costs such as
    # garbage collection do not keep landing on the same inputs.
    order = np.random.default_rng([seed, 4])
    t_start = time.perf_counter()
    deadline = t_start + seconds
    timeline = []
    for rep, i in ((rep, int(i)) for rep in count() for i in order.permutation(len(base))):
        now = time.perf_counter()
        if rep and now >= deadline:
            break
        runs[i].append(workload.run(package, workload.repeat(base[i], rep), tmpdir, refs))
        timeline.append((i, rep, round(now - t_start, 4)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_check([r for reps in runs for r in reps], np.random.default_rng([seed, 3]), ORACLE_ROWS)
    summary = summarize(runs, workload.tail_percentile)
    if "work_per_s" not in summary:
        sys.exit(f"error: no operation succeeded: {summary['failures']}")
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": summary["work_per_s"],
        "op_p50_ms": summary["op_p50_ms"],
        "op_tail_ms": summary["op_tail_ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    per_s = summary["work_per_s"]
    report = {
        "setup_s": (metrics["setup_s"], "s"),
        "rows_per_s": (per_s if workload.work_unit == "rows" else None, "rows/s"),
        "msym_per_s": (per_s / 1e6 if workload.work_unit == "symbols" else None, "Msym/s"),
        "op_p50_ms": (metrics["op_p50_ms"], f"ms (over {summary['latency_samples']} inputs)"),
        "op_tail_ms": (
            metrics["op_tail_ms"],
            f"ms (p{workload.tail_percentile:g}: {summary['tail_beyond']} of {summary['latency_samples']} beyond)",
        ),
        "fail_frac": (
            summary["fail_frac"],
            f"({summary['failed']}/{summary['attempted']} inputs; "
            f"{summary['failed_executions']}/{summary['executions']} executions)",
        ),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "work_per_s": (metrics["work_per_s"], f"{workload.work_unit}/s"),
        "wall_work_per_s": (summary["wall_work_per_s"], f"{workload.work_unit}/s over all executions"),
    }
    summary["setup_samples_s"] = setup
    # Every execution in order: input, round, start (s into the loop),
    # latency (ms), failed.
    summary["timeline"] = [
        (i, rep, t, round(runs[i][rep].latency_s * 1e3, 4), runs[i][rep].failure is not None)
        for i, rep, t in timeline
    ]
    return metrics, {"summary": summary, "report": report}


def measure_traced(workload, package, seed: int, tmpdir: str) -> tuple[dict, dict]:
    metrics = probe.setup_detail(ROOT, SETUP_DETAIL_RUNS)
    refs = workload.prepare(package)
    workload.warm_up(package, tmpdir, refs)
    ops = list(islice(workload.inputs(seed), workload.op_set))
    untraced, _ = run_ops(workload, package, ops, tmpdir, refs)
    with Tracer(package) as tracer:
        traced, per_op_calls = run_ops(workload, package, ops, tmpdir, refs, tracer)
    oracle_check(traced, np.random.default_rng([seed, 3]), TRACED_ORACLE_ROWS)
    summary = summarize([[r] for r in traced], workload.tail_percentile)
    untraced_s = sum(r.latency_s for r in untraced)
    traced_s = sum(r.latency_s for r in traced)
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0

    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = tracer.calls(name)
    marcum = tracer.calls("specfun.marcum_q")
    nodes = tracer.edges[("specfun.marcum_q_quad", "specfun.bessel_i0_scaled")]
    metrics["specfun.bessel_i0_scaled.calls_per_marcum_q"] = nodes / marcum if marcum else 0.0
    ok_rows = sum(r.work for r in traced if r.failure is None) if workload.work_unit == "rows" else 0
    for name in KEYED:
        calls = sum(c[name][0] for c, r in zip(per_op_calls, traced) if r.failure is None)
        useful = sum(c[name][1] for c, r in zip(per_op_calls, traced) if r.failure is None)
        metrics[f"{name}.calls_per_row"] = calls / ok_rows if ok_rows else 0.0
        metrics[f"{name}.useful_ratio"] = useful / calls if calls else 0.0
    metrics["bounds.exact_ber.nonpositive"] = tracer.stats["bounds.exact_ber"].nonpositive
    for name in SELF_SHARE:
        metrics[f"{name}.self_pct"] = tracer.self_s(name) / traced_s * 100.0
    sim_s = tracer.stats["montecarlo.simulate"].total_s
    symbols = sum(r.work for r in traced) if workload.work_unit == "symbols" else 0
    metrics["montecarlo.msym_per_s"] = symbols / sim_s / 1e6 if sim_s else 0.0

    kernels = probe.kernel_probe(package)
    metrics.update(kernels)
    stats = {
        name: {"calls": s.calls, "self_ms": s.self_s * 1e3, "total_ms": s.total_s * 1e3}
        for name, s in sorted(tracer.stats.items())
        if s.calls
    }
    summary["untraced_busy_s"] = untraced_s
    report = {name: (value, "") for name, value in metrics.items()}
    for name, s in stats.items():
        report[f"{name}.self_ms"] = (s["self_ms"], f"ms over {s['calls']} calls")
    return metrics, {
        "summary": summary,
        "report": report,
        "spans": stats,
        "edges": {f"{a} -> {b}": n for (a, b), n in sorted(tracer.edges.items())},
        "baseline_table": probe.baseline_table(kernels),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    package = load_package()
    workload = WORKLOADS[args.workload]

    out_dir = ROOT / ".perfbench-out"
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=out_dir, prefix="tmp-")
    try:
        if args.trace:
            values, details = measure_traced(workload, package, args.seed, tmpdir)
        else:
            values, details = measure(workload, package, args.seed, args.seconds, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    summary = details["summary"]
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": summary["attempted"],
        "machine": machine_info(package),
        **details,
        "result": result,
    }
    path = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for name, (value, unit) in details["report"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:52s} {shown:>14s} {unit}")
    if "baseline_table" in details:
        print(details["baseline_table"])
    if summary["failures"]:
        print("failures:", json.dumps(summary["failures"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
