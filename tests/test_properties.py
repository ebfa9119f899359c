"""Property-based checks of the README's contracts: `evaluate` reports the
lowest offending row whatever the mix of bad rows and columns, a row's
values depend on its own SNR only, and every command line exits 0, 1 or 2
with one `error:` line for an error. Hypothesis runs derandomized and
without an example database, so each run checks the same examples."""

import contextlib
import io
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqpskber import approx, cli

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# SNRs at which some column is undefined: NaN, zeros and negatives, below
# ber4's floor, the smallest double, infinities, an overflowing b, and an
# exact BER that underflows to 0 (eps5..eps7)
BAD = [math.nan, 0.0, -0.0, -1.0, -1e-300, 1e-13, 5e-324, math.inf, -math.inf, 1e308, 5000.0]
VALID = st.floats(1e-12, 1e3)  # every column defined
COLUMN_SETS = st.lists(st.sampled_from(approx.COLUMNS), min_size=1, unique=True)


def _message(gamma: np.ndarray, columns) -> str | None:
    try:
        approx.evaluate(gamma, columns)
    except ValueError as exc:
        return str(exc)
    return None


@PROPERTY
@given(st.lists(st.sampled_from(BAD) | VALID | st.floats(max_value=0.0), min_size=1, max_size=12), COLUMN_SETS)
def test_lowest_offending_row_decides_the_error(gamma, columns):
    g = np.array(gamma)
    rows = (_message(g[i : i + 1], columns) for i in range(g.size))
    assert _message(g, columns) == next((m for m in rows if m is not None), None)


@settings(PROPERTY, max_examples=25)
@given(st.lists(VALID, min_size=1, max_size=64))
def test_row_values_depend_on_their_own_snr_only(gamma):
    g = np.array(gamma)
    whole = approx.evaluate(g, approx.COLUMNS)
    alone = [approx.evaluate(g[i : i + 1], approx.COLUMNS) for i in range(g.size)]
    for column in approx.COLUMNS:
        rows = np.concatenate([values[column] for values in alone])
        assert np.array_equal(whole[column].view(np.uint64), rows.view(np.uint64)), column


# command and option names, and prefixes
NAMES = ["table", "sweep", "mc", "constants", "--out", "--start", "--stop", "--step", "--scale", "--cols",
         "--snr-db", "--symbols", "--seed", "--st", "--s", "-h", "--help", "--", "-"]
# the values drawn for each argument of `cli._COMMANDS`, a valid one first
VALUES = {
    "which": ["1", "2", "3", "4", "0"],
    "--start": ["0.5", "-10", "1", "-1e308", "nan", "5e-324"],
    "--stop": ["10", "3", "-1", "1e308", "inf"],
    "--step": ["0.5", "1", "0", "-1", "5e-324", "-0"],
    "--scale": ["db", "linear", "dB"],
    "--cols": ["exact,w5", ",".join(approx.COLUMNS), "w6,,l1", "eps5", "l1,bogus", ","],
    "--snr-db": ["3", "-10", "0", "40", "-400", "1e308", "nan"],
    "--symbols": ["1000", "100000", "999", "-1", "1.5", "10000000"],
    "--seed": ["42", "0", "-1", "x"],
}
# the words inserted anywhere: names, values, any text, and short words of
# dashes and characters that end a line
TOKENS = (st.sampled_from(NAMES + sorted({v for values in VALUES.values() for v in values})) | st.text(max_size=8)
          | st.text(st.sampled_from("-=x\n\r\x0b\x1c\x85\u2028"), min_size=1, max_size=4))


@st.composite
def _command_lines(draw, paths: list[str]) -> list[str]:
    """`[--out PATH] COMMAND` and each argument of the command, as `--name
    VALUE` or `--name=VALUE` with a value from `VALUES`; then up to two
    words dropped, and up to three of `TOKENS` inserted anywhere."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    argv = ["--out", draw(st.sampled_from(paths))] if draw(st.booleans()) else []
    argv.append(command)
    for name in cli._COMMANDS[command][1]:
        value = draw(st.sampled_from(VALUES[name]))
        argv += [value] if name[0] != "-" else [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    dropped = draw(st.sets(st.integers(0, len(argv) - 1), max_size=2))
    argv = [word for i, word in enumerate(argv) if i not in dropped]
    for at, word in draw(st.lists(st.tuples(st.integers(0, len(argv)), TOKENS), max_size=3)):
        argv.insert(at, word)
    return argv


def _bounded(argv: list[str], paths: list[str]) -> bool:
    """Whether `argv`, if it parses, sweeps at most 2,000 rows, draws at
    most 10^5 Monte-Carlo symbols and writes `--out` only to one of `paths`."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli._parse(argv)
        except SystemExit:
            return True
    if args["--out"] is not None and args["--out"] not in paths:
        return False
    if args["command"] == "sweep" and args["--step"] > 0.0:
        return not 1999.0 < (args["--stop"] - args["--start"]) / args["--step"] <= cli._MAX_GRID_POINTS
    return args["command"] != "mc" or args["--symbols"] <= 10**5


def test_any_command_line_exits_0_1_or_2(tmp_path_factory):
    root = tmp_path_factory.mktemp("out")
    (root / "old.csv").write_text("old\n")
    paths = [str(root / "new.csv"), str(root / "old.csv"), str(root), str(root / "missing" / "x.csv")]

    @settings(PROPERTY, max_examples=200)
    @given(_command_lines(paths))
    def run(argv):
        assume(_bounded(argv, paths))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1, err.getvalue()
        else:
            assert err.getvalue() == ""

    run()
