"""Command-line front end emitting deterministic CSV.

Subcommands: ``table {1|2|3}`` (reference tables on the integer SNR grid
1..12), ``sweep`` (arbitrary SNR grids for figure data), ``mc`` (the
Monte-Carlo oracle vs the exact value), and ``constants`` (the root and
sharp constant behind the best upper bound). ``--out PATH`` writes the
CSV atomically instead of printing it.

Note on the table grid: the reference tabulation these tables reproduce
indexes rows by LINEAR SNR 1..12 even though its grid column is
conventionally labeled in dB; the ``table`` commands follow that
convention (column name ``gamma_db``, rows evaluated at linear SNR).
``sweep`` applies its ``--scale`` honestly.

CSV dialect: comma-separated, ``.`` decimal point, LF line endings,
header always present, 6 significant digits in lowercase scientific
notation. Exit status: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile

import numpy as np

from . import approx, bounds, montecarlo, specfun

_MAX_GRID_POINTS = 10**7

# Guard for the mc subcommand: vanishingly small linear SNR (e.g. -300 dB)
# is rejected rather than simulated.
_MC_GAMMA_FLOOR = 1e-12

# table number -> (CSV header, columns evaluated on the linear SNR grid 1..12)
_TABLES = {
    1: ("gamma_db,ber,ber1,ber2,ber3", ("exact", "ber1", "ber2", "ber3")),
    2: ("gamma_db,ber4,ber5,ber6,ber7", ("ber4", "ber5", "ber6", "ber7")),
    3: ("gamma_db,eps5,eps6,eps7", ("eps5", "eps6", "eps7")),
}

# Value cells: 6 significant digits in lowercase scientific notation.
_CELL = "%.5e"


def _fmt_gamma(x: float) -> str:
    return f"{x:.6g}"


def _csv(header: str, labels: list[str], gamma_lin, columns) -> str:
    """One CSV row per SNR: its label, then the columns from one kernel call."""
    values = approx.evaluate(gamma_lin, columns)
    row = ",".join(["%s"] + [_CELL] * len(columns))
    lines = [header] + [row % cells for cells in zip(labels, *(values[c].tolist() for c in columns))]
    return "\n".join(lines) + "\n"


def cmd_table(which: int) -> str:
    """Reference table CSV over linear SNR 1..12."""
    header, columns = _TABLES[which]
    return _csv(header, [str(k) for k in range(1, 13)], np.arange(1.0, 13.0), columns)


def cmd_sweep(start: float, stop: float, step: float, scale: str, columns: list[str]) -> str:
    """CSV over an inclusive SNR grid; scale selects db or linear grid values."""
    if not columns:
        raise ValueError("column list must not be empty")
    if not start < stop:
        raise ValueError("start must be < stop")
    if not step > 0.0:
        raise ValueError("step must be > 0")
    span = (stop - start) / step
    if span > _MAX_GRID_POINTS:
        raise ValueError("grid would exceed the 1e7-point guard")
    count = int(math.floor(span + 1e-9)) + 1

    grid = [start + i * step for i in range(count)]
    gamma = [bounds.db_to_linear(x) for x in grid] if scale == "db" else grid
    zero_ok = all(c in ("w6", "w7") for c in columns)
    for g in gamma:
        if g <= 0.0 and not (zero_ok and g == 0.0):
            raise ValueError(f"grid contains gamma = {g:g}, not valid for requested columns")
    header = ",".join(["gamma_db" if scale == "db" else "gamma_lin"] + columns)
    return _csv(header, [_fmt_gamma(x) for x in grid], np.array(gamma), columns)


def cmd_mc(snr_db: float, symbols: int, seed: int) -> str:
    """One Monte-Carlo run against the exact value; inside_ci is 0/1."""
    snr = bounds.SnrPoint.from_db(snr_db)
    if snr.gamma_lin < _MC_GAMMA_FLOOR:
        raise ValueError("gamma must be positive and not vanishingly small (>= 1e-12 linear)")
    result = montecarlo.simulate(montecarlo.McConfig(snr=snr, num_symbols=symbols, seed=seed))
    exact = bounds.exact_ber(snr)
    inside = int(abs(result.ber_estimate - exact) <= result.ci_half_width)
    fields = [
        _fmt_gamma(snr_db),
        _CELL % result.ber_estimate,
        _CELL % result.ci_half_width,
        _CELL % exact,
        str(inside),
    ]
    return "gamma_db,ber_mc,ci_half_width,ber_exact,inside_ci\n" + ",".join(fields) + "\n"


def cmd_constants() -> str:
    """The root, the sharp constant, and the defining-equation residual."""
    consts = bounds.solve_rho0()
    residual = abs(
        (consts.rho0 + 1.0) * specfun.bessel_i1(consts.rho0)
        - consts.rho0 * specfun.bessel_i0(consts.rho0)
    )
    lines = [
        "name,value",
        f"rho0,{consts.rho0:.14e}",
        f"lambda0,{consts.lambda0:.14e}",
        f"residual,{residual:.14e}",
    ]
    return "\n".join(lines) + "\n"


def _parse_columns(text: str) -> list[str]:
    columns = [c.strip() for c in text.split(",") if c.strip()]
    if not columns:
        raise argparse.ArgumentTypeError("column list must not be empty")
    unknown = [c for c in columns if c not in approx.COLUMNS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown columns {unknown!r}; valid: {', '.join(approx.COLUMNS)}"
        )
    return list(dict.fromkeys(columns))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqpsk-ber",
        description="Exact DQPSK/AWGN bit error rate, bounds, approximations, and a Monte-Carlo oracle (CSV output).",
    )
    parser.add_argument("--out", metavar="PATH", default=None, help="write CSV to PATH (atomic) instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reference tables on the integer SNR grid 1..12")
    p_table.add_argument("which", type=int, choices=(1, 2, 3))

    p_sweep = sub.add_parser("sweep", help="evaluate selected columns over an SNR grid")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--step", type=float, required=True)
    p_sweep.add_argument("--scale", choices=("db", "linear"), required=True)
    p_sweep.add_argument("--cols", type=_parse_columns, required=True, metavar="LIST")

    p_mc = sub.add_parser("mc", help="run the Monte-Carlo oracle at one SNR")
    p_mc.add_argument("--snr-db", type=float, required=True)
    p_mc.add_argument("--symbols", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)

    sub.add_parser("constants", help="emit the root and sharp constant with residual")
    return parser


@functools.cache
def _renameat2():
    # The C library's renameat2, or None where it has none (e.g. not Linux).
    try:
        import ctypes

        return ctypes.CDLL(None, use_errno=True).renameat2
    except (ImportError, OSError, TypeError, AttributeError):
        return None


def _exchange(tmp_path: str, out_path: str) -> bool:
    """Swap two existing names in one step (renameat2, AT_FDCWD = -100,
    RENAME_EXCHANGE = 2); False, with nothing changed, where unsupported."""
    fn = _renameat2()
    return fn is not None and fn(-100, os.fsencode(tmp_path), -100, os.fsencode(out_path), 2) == 0


def _emit(text: str, out_path: str | None) -> None:
    """Write `text` to stdout, or to `out_path` atomically for readers (no fsync).

    An existing file is swapped out rather than renamed over: on ext4 a
    rename over a file starts a disk write of the new one (auto_da_alloc)
    on every call, whose time follows the disk's load."""
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".dqpskber-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        if os.path.isfile(out_path) and _exchange(tmp_path, out_path):
            os.unlink(tmp_path)  # now the old file
        else:
            os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            text = cmd_table(args.which)
        elif args.command == "sweep":
            text = cmd_sweep(args.start, args.stop, args.step, args.scale, args.cols)
        elif args.command == "mc":
            text = cmd_mc(args.snr_db, args.symbols, args.seed)
        else:
            text = cmd_constants()
        _emit(text, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
