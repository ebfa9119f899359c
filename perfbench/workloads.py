"""The three workloads: inputs drawn from a seed, one operation, its checks.

Each workload yields an endless, seed-determined sequence of operation
inputs, of which a run uses the first `op_set`. Sweep windows form a
Latin hypercube over position and width: each block of `op_set` windows
has one window in each of `op_set` position strata and one in each
width stratum, with seeded pairing and jitter. So the mix of cheap and
expensive windows is nearly the same for every seed, and the number of
windows that reach the >= 31 dB failure is the same for every seed.

A run executes each input several times. `repeat` makes each execution
a distinct request of the same cost (a window shifted by a ten-millionth
of its step, a fresh simulation seed), so a cache keyed on the inputs
cannot serve a repetition.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks

REPEAT_SHIFT = 1e-7

ALL_COLUMNS = (
    "exact", "l1", "l2", "u1", "u2", "u3", "ber1", "ber2", "ber3", "ber4",
    "ber5", "ber6", "ber7", "eps5", "eps6", "eps7", "w5", "w6", "w7",
)
CLOSED_COLUMNS = ("l1", "l2", "u1", "u2", "u3", "ber1", "ber2", "ber3", "ber4", "w5", "w6", "w7")


@dataclass
class OpResult:
    """One operation: wall time of the call, work delivered, failure reason."""

    latency_s: float
    work: int
    failure: str | None = None
    # (gamma_lin, parsed row) kept from a successful sweep for the oracle check.
    sample: tuple | None = None
    violations: list = field(default_factory=list)


def _latin(rng: np.random.Generator, n: int):
    """Endless stream of points in [0, 1)^2; each block of n points has
    one point in every one of n strata of each axis (a Latin hypercube)."""
    while True:
        first, second = rng.permutation(n), rng.permutation(n)
        for k in range(n):
            yield float((first[k] + rng.random()) / n), float((second[k] + rng.random()) / n)


@dataclass(frozen=True)
class SweepWorkload:
    """One `dqpsk-ber sweep` per operation over a seed-drawn window of
    `rows` points; position and width are stratified.

    scale "db": the width is drawn from `width` (dB) and the stop from
    `stop_bands`, (low, high, n) triples: n of every `op_set` stops are
    stratified over [low, high]. Every band must lie inside
    [lo + max width, hi]. scale "linear": the start is drawn on a log
    axis over [lo, hi / max ratio] and the stop is start times a ratio
    drawn from `width`. Every window lies inside [lo, hi].
    """

    name: str
    scale: str
    columns: tuple
    lo: float
    hi: float
    width: tuple
    rows: int
    op_set: int
    tail_percentile: float
    stop_bands: tuple = ()
    work_unit: str = "rows"

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        w_lo, w_hi = self.width
        for u_position, u_width in _latin(rng, self.op_set):
            w = w_lo + u_width * (w_hi - w_lo)
            if self.scale == "db":
                stop = self._stop(u_position)
                start = stop - w
                step = w / (self.rows - 1)
            else:
                start = self.lo * (self.hi / w_hi / self.lo) ** u_position
                step = start * (w - 1.0) / (self.rows - 1)
            yield self._window(start, step, pick=int(rng.integers(self.rows)))

    def _stop(self, u: float) -> float:
        """Map u in [0, 1), stratum int(u * op_set), into `stop_bands`: the
        first band takes the first n strata, the next band the next n."""
        j = u * self.op_set
        for low, high, n in self.stop_bands:
            if j < n:
                return low + j / n * (high - low)
            j -= n
        raise ValueError(f"stop_bands of {self.name} cover fewer than op_set={self.op_set} strata")

    def _window(self, start: float, step: float, pick: int) -> dict:
        stop = start + (self.rows - 1) * step
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return {"start": start, "stop": stop, "step": step, "count": count, "pick": min(pick, count - 1)}

    def repeat(self, op: dict, rep: int) -> dict:
        return self._window(op["start"] + rep * REPEAT_SHIFT * op["step"], op["step"], op["pick"])

    def prepare(self, package) -> dict:
        return {}

    def warm_up(self, package, tmpdir: str, refs: dict) -> None:
        self.run(package, next(self.inputs(0)), tmpdir, refs)

    def run(self, package, op: dict, tmpdir: str, refs: dict) -> OpResult:
        out = os.path.join(tmpdir, "sweep.csv")
        argv = [
            "--out", out, "sweep",
            "--start", repr(op["start"]), "--stop", repr(op["stop"]), "--step", repr(op["step"]),
            "--scale", self.scale, "--cols", ",".join(self.columns),
        ]
        stderr = io.StringIO()
        failure = None
        with contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                code = package.cli.main(argv)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
            except Exception as exc:  # any escape from the CLI is a failed operation
                failure = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
        if failure is None and code != 0:
            failure = stderr.getvalue().strip() or f"exit {code}"
        if failure is not None:
            return OpResult(latency, 0, failure=failure)
        with open(out, encoding="utf-8", newline="") as handle:
            text = handle.read()
        grid = [op["start"] + i * op["step"] for i in range(op["count"])]
        rows, problems = checks.check_sweep(text, list(self.columns), self.scale, grid)
        if problems:
            return OpResult(latency, 0, failure="check: " + problems[0], violations=problems)
        g = grid[op["pick"]]
        gamma_lin = 10.0 ** (g / 10.0) if self.scale == "db" else g
        return OpResult(latency, len(rows), sample=(gamma_lin, rows[op["pick"]]))


@dataclass(frozen=True)
class McWorkload:
    """One `simulate(McConfig(snr, symbols, seed))` per operation.

    The SNR cycles through `snrs_db`; each operation's simulation seed is
    drawn from the workload seed.
    """

    name: str
    snrs_db: tuple
    symbols: int
    op_set: int
    tail_percentile: float
    work_unit: str = "symbols"

    def prepare(self, package) -> dict:
        """Reference exact BER per SNR, computed once outside any timed or
        traced region so that checking an operation does not call the package."""
        return {snr_db: package.exact_ber(package.SnrPoint.from_db(snr_db)) for snr_db in self.snrs_db}

    def inputs(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        while True:
            for snr_db in self.snrs_db:
                yield {"snr_db": snr_db, "seed": int(rng.integers(2**63))}

    def repeat(self, op: dict, rep: int) -> dict:
        return {"snr_db": op["snr_db"], "seed": (op["seed"] + rep) % 2**63}

    def warm_up(self, package, tmpdir: str, refs: dict) -> None:
        package.simulate(package.McConfig(package.SnrPoint.from_db(self.snrs_db[0]), 10**5, 0))

    def run(self, package, op: dict, tmpdir: str, refs: dict) -> OpResult:
        config = package.McConfig(package.SnrPoint.from_db(op["snr_db"]), self.symbols, op["seed"])
        t0 = time.perf_counter()
        try:
            result = package.simulate(config)
        except Exception as exc:  # any escape from the simulator is a failed operation
            return OpResult(time.perf_counter() - t0, 0, failure=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        problems = checks.check_mc(result, self.symbols, refs[op["snr_db"]])
        if problems:
            return OpResult(latency, 0, failure="check: " + problems[0], violations=problems)
        return OpResult(latency, self.symbols)


WORKLOADS = {
    w.name: w
    for w in (
        # 64 inputs. exact_ber turns nonpositive between 30.99 and 31.0 dB,
        # and no stop is drawn from (30.5, 31.5) dB around it, so exactly
        # 14 inputs reach the failure on every seed and 50 stay below it:
        # 12 beyond p75. About 14 executions each in 30 s.
        SweepWorkload(
            "sweep-wide", "db", ALL_COLUMNS, -10.0, 40.0, (10.0, 10.0),
            rows=41, op_set=64, tail_percentile=75.0,
            stop_bands=((0.0, 30.5, 50), (31.5, 40.0, 14)),
        ),
        # 256 inputs: 25 beyond p90. About 15 executions each in 30 s.
        SweepWorkload(
            "sweep-closed", "linear", CLOSED_COLUMNS, 0.01, 1000.0, (2.0, 10.0),
            rows=101, op_set=256, tail_percentile=90.0,
        ),
        # One input per SNR, about 10 executions each in 30 s; three inputs
        # are too few for ten beyond any percentile, so the tail is the
        # slowest SNR.
        McWorkload("mc", (0.0, 3.0, 6.0), 10**7, op_set=3, tail_percentile=100.0),
    )
}
