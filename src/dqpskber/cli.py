"""Command-line front end emitting deterministic CSV.

Subcommands: ``table {1|2|3}`` (reference tables on the integer SNR grid
1..12), ``sweep`` (arbitrary SNR grids for figure data), ``mc`` (the
Monte-Carlo oracle vs the exact value), and ``constants`` (the root and
sharp constant behind the best upper bound). ``--out PATH``, given before
the command, writes the CSV atomically instead of printing it.

Command line: ``[--out PATH] COMMAND ...``, parsed by the `_COMMANDS`
table. An option is ``--name VALUE`` or ``--name=VALUE``, where VALUE is
the next token verbatim (``--start -1e1`` works) and a unique prefix of
the name will do; a repeated option keeps its last value. ``-h`` or
``--help`` in place of an option prints the usage.

Note on the table grid: the reference tabulation these tables reproduce
indexes rows by LINEAR SNR 1..12 even though its grid column is
conventionally labeled in dB; the ``table`` commands follow that
convention (column name ``gamma_db``, rows evaluated at linear SNR).
``sweep`` applies its ``--scale`` honestly.

CSV dialect: comma-separated, ``.`` decimal point, LF line endings,
header always present, 6 significant digits in lowercase scientific
notation. Exit status: 0 success, 1 domain error, 2 usage error; each
error is one ``error: ...`` line on stderr.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import sys

import numpy as np

from . import approx, bounds, montecarlo

_MAX_GRID_POINTS = 10**7
# Rows per block of `_csv`, which bounds the renderer's temporaries.
_ROWS = 4096

# table number -> (CSV header, columns evaluated on the linear SNR grid 1..12)
_TABLES = {
    1: ("gamma_db,ber,ber1,ber2,ber3", ("exact", "ber1", "ber2", "ber3")),
    2: ("gamma_db,ber4,ber5,ber6,ber7", ("ber4", "ber5", "ber6", "ber7")),
    3: ("gamma_db,eps5,eps6,eps7", ("eps5", "eps6", "eps7")),
}

# Value cells: 6 significant digits in lowercase scientific notation.
_CELL = "%.5e"
# SNR labels (`%` is faster than, and byte-identical to, format()).
_GAMMA = "%.6g"
# 10^k for k = -330..330 (index k + 330), each the correctly rounded double.
_POW10 = np.array([float(f"1e{k}") for k in range(-330, 331)])


# The word tables of `_cells`: each the `%` text of a piece of a cell as one
# NUL-padded 8-byte word. A cell with sign bit s, six-digit mantissa m and
# exponent e is two words: _HEAD[m // 1000 + 1000 s] holds "," and the sign
# (NUL or "-"), then the first three digits as "d.dd"; _TAIL[m % 1000] |
# _EXP[e + 330] the last three, then "e" and the exponent with its sign.
# _TAIL and _EXP words fill disjoint bytes, so their OR keeps every byte in
# place on either byte order.
_HEAD = np.array([b",%c%d.%02d" % (s, k // 100, k % 100) for s in b"\0-" for k in range(1000)], "S8").view(np.uint64)
_TAIL = np.array([b"%03d" % k for k in range(1000)], "S8").view(np.uint64)
_EXP = np.array([b"\0\0\0e%+03d" % e for e in range(-330, 331)], "S8").view(np.uint64)


def _cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`,` and the `_CELL` text of each value of a 2-D array, as NUL-padded
    ASCII of shape values.shape + (16,), and the mask of the cells proven
    to match `%`; the bytes of every other cell are meaningless.

    With e = floor(log10 |x|), y = |x| 10^(5 - e) is two correctly rounded
    steps below 1e6, so within 2.3e-10 of its true value. A cell is proven
    where y >= 1e5, rint(y) < 1e6 and y is more than 1e-9 from a tie; then
    rint(y) is the six digits `%` prints with exponent e. That holds where
    log10 put e one too high as well: y >= 1e5 then leaves only |x| within
    2.3e-15 below 10^e, which `%` rounds up to 1.00000 with exponent e.
    Where log10 put e one too low, or the sixth digit carries into the
    exponent, rint(y) = 1e6 and the cell is not proven. Nor are nan, inf,
    subnormals and |x| outside [1e-300, 1e300). The sign bit picks the "-"
    half of `_HEAD`, so -0.0 prints as -0.00000e+00.
    """
    a = np.abs(values)
    with np.errstate(invalid="ignore"):  # signalling NaNs
        zero = a == 0.0
        ok = (a >= 1e-300) & (a < 1e300)
    a = np.where(ok, a, 1.0)  # zeros and unproven cells take the digits of 1.0
    ok |= zero
    e = np.floor(np.log10(a)).astype(np.int64)
    y = a * _POW10[335 - e]
    r = np.rint(y)
    ok &= (np.abs(y - r) < 0.5 - 1e-9) & (y >= 1e5) & (r < 1e6)
    r[zero] = 0.0  # 0.00000e+00
    head, tail = np.divmod(r.astype(np.int64), 1000)
    first = _HEAD.take(head + 1000 * np.signbit(values), mode="clip")  # unproven rint(y) >= 1e6 runs past its half
    cells = np.stack([first, _TAIL[tail] | _EXP[e + 330]], axis=-1)
    return cells.view(np.uint8), ok


def _rows(labels: list[str], values: np.ndarray) -> str:
    """Lines `label,cell,...` for a (rows, columns) block: the cells from
    `_cells`, where each cell it does not prove is `,` and `_CELL % x`,
    written into its 16-byte slot (at most 15 bytes, as in -1.23456e-308).
    Labels and cells are NUL-padded to fixed widths in one byte matrix, and
    the NULs are dropped at the end."""
    cells, ok = _cells(values)
    if not ok.all():
        cells[~ok] = np.array(["," + _CELL % x for x in values[~ok].tolist()], "S16").view(np.uint8).reshape(-1, 16)
    n = len(labels)
    label = np.array(labels, dtype="S").view(np.uint8).reshape(n, -1)
    text = np.concatenate([label, cells.reshape(n, -1), np.full((n, 1), ord("\n"), np.uint8)], axis=1)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _csv(header: str, labels: list[str], gamma_lin, columns) -> str:
    """One CSV row per SNR: its label, then the columns from one kernel
    call, rendered by `_rows` in blocks of `_ROWS` rows."""
    values = approx.evaluate(gamma_lin, columns)
    parts = [header + "\n"]
    for lo in range(0, len(labels), _ROWS):
        block = np.array([values[c][lo : lo + _ROWS] for c in columns]).T
        parts.append(_rows(labels[lo : lo + _ROWS], block))
    return "".join(parts)


def cmd_table(which: int) -> str:
    """Reference table CSV over linear SNR 1..12."""
    header, columns = _TABLES[which]
    return _csv(header, [str(k) for k in range(1, 13)], np.arange(1.0, 13.0), columns)


def cmd_sweep(start: float, stop: float, step: float, scale: str, columns: list[str]) -> str:
    """CSV over an inclusive SNR grid; scale selects db or linear grid values."""
    if not columns:
        raise ValueError("column list must not be empty")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError("start, stop and step must be finite")
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
    header = ",".join(["gamma_db" if scale == "db" else "gamma_lin"] + columns)
    return _csv(header, [_GAMMA % x for x in grid], np.array(gamma), columns)


def cmd_mc(snr_db: float, symbols: int, seed: int) -> str:
    """One Monte-Carlo run against the exact value; inside_ci is 0/1."""
    snr = bounds.SnrPoint.from_db(snr_db)
    result = montecarlo.simulate(montecarlo.McConfig(snr=snr, num_symbols=symbols, seed=seed))
    exact = bounds.exact_ber(snr)
    inside = int(abs(result.ber_estimate - exact) <= result.ci_half_width)
    fields = [
        _GAMMA % snr_db,
        _CELL % result.ber_estimate,
        _CELL % result.ci_half_width,
        _CELL % exact,
        str(inside),
    ]
    return "gamma_db,ber_mc,ci_half_width,ber_exact,inside_ci\n" + ",".join(fields) + "\n"


def cmd_constants() -> str:
    """The root, the sharp constant, and the defining-equation residual."""
    consts, special = bounds.solve_rho0(), bounds._special()
    x = consts.rho0
    residual = abs((x + 1.0) * float(special.i1(x)) - x * float(special.i0(x)))
    lines = [
        "name,value",
        f"rho0,{consts.rho0:.14e}",
        f"lambda0,{consts.lambda0:.14e}",
        f"residual,{residual:.14e}",
    ]
    return "\n".join(lines) + "\n"


def _parse_columns(text: str) -> list[str]:
    columns = [c for c in map(str.strip, text.split(",")) if c]
    if not columns:
        raise ValueError("column list must not be empty")
    if unknown := [c for c in columns if c not in approx.COLUMNS]:
        raise ValueError(f"unknown columns {unknown!r}; valid: {', '.join(approx.COLUMNS)}")
    return list(dict.fromkeys(columns))


# The command line `[--out PATH] COMMAND ...`: each command's help line and
# the arguments of its function `cmd_<command>`, in the order it takes them,
# name -> (converter, metavar); a metavar {a,b} lists the only values
# allowed. A name without `--` is a positional. Every argument but --out is
# required. `main` looks the function up by name when it runs, so a
# replacement set on the module is the one called.
_COMMANDS = {
    "table": ("reference tables on the integer SNR grid 1..12", {"which": (int, "{1,2,3}")}),
    "sweep": ("evaluate selected columns over an SNR grid", {"--start": (float, "FLOAT"), "--stop": (float, "FLOAT"),
              "--step": (float, "FLOAT"), "--scale": (str, "{db,linear}"), "--cols": (_parse_columns, "LIST")}),
    "mc": ("run the Monte-Carlo oracle at one SNR", {"--snr-db": (float, "FLOAT"), "--symbols": (int, "INT"), "--seed": (int, "INT")}),
    "constants": ("emit the root and sharp constant with residual", {}),
}
_TOP = {"--out": (str, "PATH"), "command": (str, "{%s}" % ",".join(_COMMANDS))}


def _help(command: str | None) -> str:
    """The `--help` text of `command`, or of every command."""
    text = "usage: dqpsk-ber [--out PATH] COMMAND ...\n\nExact DQPSK bit error rate, bounds and approximations as CSV.\n\n"
    text += "options:\n  --out PATH\n      write the CSV to PATH atomically instead of stdout\n\ncommands:\n"
    for name in [command] if command else _COMMANDS:
        doc, spec = _COMMANDS[name]
        words = [name] + [f"{arg} {meta}" if arg[0] == "-" else meta for arg, (_, meta) in spec.items()]
        text += f"  {' '.join(words)}\n      {doc}\n"
    return text


def _usage_error(message: str):
    """Report a usage error in one line and exit 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _echo(token: str) -> str:
    """`token` with each non-printable character escaped as in repr, so a
    usage error that quotes it stays one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in token)


def _parse(argv: list[str]) -> dict:
    """`argv` by `_TOP`, then by the table of its command: each argument by
    name, "--out" None if not given. A usage error exits 2, -h/--help 0."""
    args, spec, tokens = {"--out": None}, _TOP, iter(argv)
    for token in tokens:
        if token.startswith("-"):  # --name VALUE or --name=VALUE
            name, eq, value = token.partition("=")
            if name not in spec:  # -h, or a prefix
                names = [n for n in (*spec, "--help") if n.startswith(name)] if name[2:] else []
                if token == "-h" or names == ["--help"]:
                    sys.stdout.write(_help(args.get("command")))
                    raise SystemExit(0)
                if not names:
                    _usage_error(f"unrecognized argument: {_echo(token)}")
                if len(names) > 1:
                    _usage_error(f"ambiguous option: {name} could match {', '.join(names)}")
                name = names[0]
            if not eq and (value := next(tokens, None)) is None:
                _usage_error(f"argument {name}: expected one argument")
        else:  # the next positional
            name, value = next((n for n in spec if n[0] != "-" and n not in args), None), token
            if name is None:
                _usage_error(f"unrecognized argument: {_echo(token)}")
        convert, meta = spec[name]
        if meta[0] == "{" and value not in meta[1:-1].split(","):
            _usage_error(f"argument {name}: invalid choice: {value!r} (choose from {meta})")
        try:
            args[name] = convert(value)
        except ValueError as exc:
            _usage_error(f"argument {name}: {exc}")
        spec = _COMMANDS[value][1] if name == "command" else spec
    if missing := [n for n in spec if n not in args]:  # "command", while spec is still _TOP
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return args


# `--out` temp files: a new name only, so never through a symlink, and no
# newline translation (O_BINARY, on Windows). `os.open` makes every
# descriptor non-inheritable already.
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


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


def _write(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _emit(text: str, out_path: str | None) -> None:
    """Write `text` to stdout, or to `out_path` atomically for readers (no fsync).

    The text goes to a new file named `.dqpskber-<64 random bits>.tmp` beside
    `out_path` (if that name is taken, the open fails with "File exists"), of
    mode 0666 less the umask or the mode bits of the regular file it
    replaces. An existing file is swapped out rather than renamed over: on
    ext4 a rename over a file starts a disk write of the new one
    (auto_da_alloc) on every call, whose time follows the disk's load. A
    FIFO or device is written in place, as the shell's `>` would."""
    if out_path is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    try:
        mode = os.stat(out_path).st_mode
    except OSError:  # missing, a symlink loop, ...: the temp file or rename reports real faults
        mode = 0
    if mode and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        fd = os.open(out_path, os.O_WRONLY)
        try:
            _write(fd, data)
        finally:
            os.close(fd)
        return
    tmp_path = os.path.join(os.path.dirname(out_path), f".dqpskber-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp_path, _TEMP_FLAGS, 0o666)
    try:
        try:
            if stat.S_ISREG(mode) and hasattr(os, "fchmod"):  # Windows has it from Python 3.13
                os.fchmod(fd, mode & 0o777)
            _write(fd, data)
        finally:
            os.close(fd)
        if stat.S_ISREG(mode) and _exchange(tmp_path, out_path):
            os.unlink(tmp_path)  # now the old file
        else:
            os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    run = globals()["cmd_" + args["command"]]
    _, spec = _COMMANDS[args["command"]]
    try:
        _emit(run(*map(args.get, spec)), args["--out"])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
