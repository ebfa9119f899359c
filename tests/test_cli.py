import decimal
import math
import os
import shlex
import stat
import threading
from pathlib import Path

import numpy as np
import pytest

from dqpskber import approx, bounds, cli


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_header_and_shape(self, capsys):
        code, out, _ = _run(capsys, "table", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma_db,ber,ber1,ber2,ber3"
        assert len(lines) == 13
        assert out.endswith("\n")

    def test_row_values_match_library(self, capsys):
        _, out, _ = _run(capsys, "table", "1")
        first = out.splitlines()[1].split(",")
        assert first[0] == "1"
        exact = bounds.exact_ber(bounds.SnrPoint.from_linear(1.0))
        assert first[1] == f"{exact:.5e}"
        assert first[1].startswith("1.639")

    def test_table_2_and_3_headers(self, capsys):
        _, out2, _ = _run(capsys, "table", "2")
        assert out2.splitlines()[0] == "gamma_db,ber4,ber5,ber6,ber7"
        _, out3, _ = _run(capsys, "table", "3")
        assert out3.splitlines()[0] == "gamma_db,eps5,eps6,eps7"

    def test_byte_determinism(self, capsys):
        _, out_a, _ = _run(capsys, "table", "3")
        _, out_b, _ = _run(capsys, "table", "3")
        assert out_a == out_b

    def test_rejects_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["table", "4"])
        assert info.value.code == 2


class TestSweep:
    def test_linear_grid_shape_and_bracketing(self, capsys):
        code, out, _ = _run(
            capsys,
            "sweep", "--start", "0.1", "--stop", "1.5", "--step", "0.1",
            "--scale", "linear", "--cols", "exact,l1,u1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma_lin,exact,l1,u1"
        assert len(lines) == 16
        for line in lines[1:]:
            _, exact, l1, u1 = (float(v) for v in line.split(","))
            assert l1 < exact < u1

    def test_linear_sweep_matches_table_column(self, capsys):
        # internal consistency: the table rows ARE the linear grid 1..12
        _, table_out, _ = _run(capsys, "table", "1")
        _, sweep_out, _ = _run(
            capsys,
            "sweep", "--start", "1", "--stop", "12", "--step", "1",
            "--scale", "linear", "--cols", "exact",
        )
        table_ber = [line.split(",")[1] for line in table_out.splitlines()[1:]]
        sweep_ber = [line.split(",")[1] for line in sweep_out.splitlines()[1:]]
        assert sweep_ber == table_ber

    def test_db_scale_converts(self, capsys):
        _, out, _ = _run(
            capsys,
            "sweep", "--start", "0", "--stop", "10", "--step", "5",
            "--scale", "db", "--cols", "exact",
        )
        lines = out.splitlines()
        assert lines[0] == "gamma_db,exact"
        first = lines[1].split(",")
        assert first[0] == "0"
        exact_at_unity = bounds.exact_ber(bounds.SnrPoint.from_linear(1.0))
        assert first[1] == f"{exact_at_unity:.5e}"

    def test_approximations_positive_and_decreasing(self, capsys):
        _, out, _ = _run(
            capsys,
            "sweep", "--start", "2", "--stop", "4", "--step", "0.5",
            "--scale", "linear",
            "--cols", "ber1,ber2,ber3,ber4,ber5,ber6,ber7",
        )
        rows = [[float(v) for v in line.split(",")[1:]] for line in out.splitlines()[1:]]
        assert len(rows) == 5
        for row in rows:
            assert all(v > 0.0 for v in row)
        for prev, cur in zip(rows, rows[1:]):
            assert all(c < p for c, p in zip(cur, prev))

    def test_weight_curve_from_zero(self, capsys):
        code, out, _ = _run(
            capsys,
            "sweep", "--start", "0", "--stop", "10", "--step", "0.5",
            "--scale", "linear", "--cols", "w6",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "0,7.50000e-01"
        assert len(lines) == 22

    def test_weight_needing_positive_snr_rejected_at_zero(self, capsys):
        code, out, err = _run(
            capsys,
            "sweep", "--start", "0", "--stop", "2", "--step", "0.5",
            "--scale", "linear", "--cols", "w5",
        )
        assert (code, out, err) == (1, "", "error: gamma must be positive\n")

    def test_nonweight_column_rejected_at_zero(self, capsys):
        code, out, err = _run(
            capsys,
            "sweep", "--start", "0", "--stop", "2", "--step", "0.5",
            "--scale", "linear", "--cols", "exact,w6",
        )
        assert (code, out, err) == (1, "", "error: gamma_lin must be positive and finite\n")

    def test_unknown_column_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(
                ["sweep", "--start", "1", "--stop", "2", "--step", "1",
                 "--scale", "linear", "--cols", "exact,bogus"]
            )
        assert info.value.code == 2

    def test_empty_columns_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(
                ["sweep", "--start", "1", "--stop", "2", "--step", "1",
                 "--scale", "linear", "--cols", ","]
            )
        assert info.value.code == 2

    def test_bad_range_is_domain_error(self, capsys):
        code, _, err = _run(
            capsys,
            "sweep", "--start", "5", "--stop", "1", "--step", "1",
            "--scale", "linear", "--cols", "exact",
        )
        assert code == 1
        assert "start" in err
        # the command-line parser rejects an empty list first (exit 2)
        with pytest.raises(ValueError, match="column list must not be empty"):
            cli.cmd_sweep(1.0, 2.0, 1.0, "linear", [])

    def test_main_runs_the_command_function_set_on_the_module(self, capsys, monkeypatch):
        # the benchmark's self-test and tracer replace cli.cmd_sweep this way
        calls = []
        monkeypatch.setattr(cli, "cmd_sweep", lambda *args: calls.append(args) or "replaced\n")
        code, out, _ = _run(capsys, "sweep", "--start", "1", "--stop", "2", "--step", "1", "--scale", "linear", "--cols", "l1")
        assert (code, out, calls) == (0, "replaced\n", [(1.0, 2.0, 1.0, "linear", ["l1"])])

    def test_first_offending_row_wins_across_columns(self, capsys):
        # row 0 (gamma 1e-13) is outside ber4's domain and the rows beyond
        # ~1270 give exact = 0, so eps5 is undefined there: the error must
        # name row 0 whatever the column order, though the checks run in
        # the order the columns ask for them
        for cols in ("eps5,ber4", "ber4,eps5", "eps5,l1,ber4"):
            code, out, err = _run(
                capsys,
                "sweep", "--start", "1e-13", "--stop", "2000", "--step", "100",
                "--scale", "linear", "--cols", cols,
            )
            assert (code, out, err) == (1, "", "error: gamma too small for ber4 (diverges as gamma -> 0)\n"), cols

    def test_eps_beyond_double_range_is_domain_error(self, capsys):
        code, _, err = _run(
            capsys,
            "sweep", "--start", "30", "--stop", "35", "--step", "5",
            "--scale", "db", "--cols", "exact,eps5",
        )
        assert code == 1
        assert err == "error: exact must be positive\n"

    def test_closed_columns_finite_beyond_double_range(self, capsys):
        # the scale factor exp(-g (2 - sqrt 2)) is clamped where it is 0
        # already; unclamped, its low-order part overflowed from ~197 dB
        # and every closed-form cell printed nan
        code, out, _ = _run(
            capsys,
            "sweep", "--start", "190", "--stop", "300", "--step", "5", "--scale", "db",
            "--cols", "l1,l2,u1,u2,u3,ber1,ber2,ber3,ber4,w5,w6,w7",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 23
        for line in rows:
            for cell in line.split(",")[1:]:
                assert math.isfinite(float(cell)) and float(cell) >= 0.0, line
        _, out, _ = _run(capsys, "sweep", "--start", "300", "--stop", "310", "--step", "5",
                         "--scale", "db", "--cols", "l1,ber4")
        assert out.splitlines()[1:] == [f"{db},0.00000e+00,0.00000e+00" for db in (300, 305, 310)]

    def test_db_grid_overflowing_linear_snr_is_domain_error(self, capsys):
        code, out, err = _run(
            capsys,
            "sweep", "--start", "3100", "--stop", "3101", "--step", "1",
            "--scale", "db", "--cols", "w6",
        )
        assert (code, out) == (1, "")
        assert err == "error: gamma_db = 3100 overflows the linear SNR\n"

    def test_linear_grid_overflowing_channel_params_is_domain_error(self, capsys):
        code, out, err = _run(
            capsys,
            "sweep", "--start", "1", "--stop", "1e308", "--step", "1e307",
            "--scale", "linear", "--cols", "l1",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: gamma_lin = 6e+307 overflows b")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "bounds_, cols",
        [
            (("--start", "0", "--stop", "1", "--step", "inf"), "l1"),
            (("--start", "0", "--stop", "1", "--step", "inf"), "w6"),
            (("--start", "0", "--stop", "inf", "--step", "1"), "w6"),
            (("--start", "-inf", "--stop", "1", "--step", "1"), "w6"),
            (("--start", "nan", "--stop", "1", "--step", "1"), "l1"),
        ],
    )
    def test_nonfinite_bounds_are_domain_errors(self, capsys, bounds_, cols):
        # unchecked, step inf gave the grid [nan] and stop inf tripped the size guard
        code, out, err = _run(capsys, "sweep", *bounds_, "--scale", "linear", "--cols", cols)
        assert (code, out, err) == (1, "", "error: start, stop and step must be finite\n")

    @pytest.mark.parametrize("step", ["0", "-0.5"])
    def test_nonpositive_step_is_domain_error(self, capsys, step):
        code, out, err = _run(capsys, "sweep", "--start", "0", "--stop", "1", "--step", step, "--scale", "linear", "--cols", "l1")
        assert (code, out, err) == (1, "", "error: step must be > 0\n")

    def test_grid_size_guard(self, capsys):
        code, _, err = _run(
            capsys,
            "sweep", "--start", "0", "--stop", "20000000", "--step", "1",
            "--scale", "linear", "--cols", "w6",
        )
        assert code == 1
        assert "guard" in err


class TestMc:
    def test_fields_and_determinism(self, capsys):
        args = ("mc", "--snr-db", "0", "--symbols", "100000", "--seed", "7")
        code, out_a, _ = _run(capsys, *args)
        assert code == 0
        code, out_b, _ = _run(capsys, *args)
        assert out_a == out_b
        lines = out_a.splitlines()
        assert lines[0] == "gamma_db,ber_mc,ci_half_width,ber_exact,inside_ci"
        fields = lines[1].split(",")
        assert fields[0] == "0"
        assert fields[4] in ("0", "1")
        assert float(fields[2]) > 0.0

    def test_rejects_vanishing_snr(self, capsys):
        code, _, err = _run(capsys, "mc", "--snr-db", "-300", "--symbols", "100000", "--seed", "7")
        assert code == 1
        assert "gamma must be positive" in err

    def test_rejects_small_runs(self, capsys):
        code, _, err = _run(capsys, "mc", "--snr-db", "0", "--symbols", "999", "--seed", "7")
        assert code == 1
        assert "num_symbols" in err

    def test_rejects_snr_beyond_double_range(self, capsys):
        code, out, err = _run(capsys, "mc", "--snr-db", "4000", "--symbols", "100000", "--seed", "7")
        assert (code, out) == (1, "")
        assert err == "error: gamma_db = 4000 overflows the linear SNR\n"


class TestConstants:
    def test_values_and_residual(self, capsys):
        code, out, _ = _run(capsys, "constants")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "name,value"
        rows = dict(line.split(",") for line in lines[1:])
        consts = bounds.solve_rho0()
        assert rows["rho0"] == f"{consts.rho0:.14e}"
        assert rows["lambda0"] == f"{consts.lambda0:.14e}"
        assert float(rows["residual"]) < 1e-14

    def test_fifteen_significant_digits(self, capsys):
        _, out, _ = _run(capsys, "constants")
        rho_text = dict(line.split(",") for line in out.splitlines()[1:])["rho0"]
        mantissa = rho_text.split("e")[0].replace(".", "")
        assert len(mantissa) == 15


SWEEP = ("sweep", "--start", "0.5", "--stop", "2", "--step", "0.5", "--scale", "linear", "--cols", "l1,ber5")
NO_COLS = SWEEP[:-2]  # every sweep option but --cols
MC = ("mc", "--snr-db", "0", "--symbols", "100000", "--seed", "7")


# usage errors, each with the text its error line must contain
USAGE_ERRORS = [
    ((), "command"),
    (("foo",), "'foo'"),
    (("table", "4"), "which"),
    (("table",), "which"),
    (("table", "1", "extra"), "extra"),
    (NO_COLS, "--cols"),
    ((*SWEEP, "--bogus", "1"), "--bogus"),
    (("sweep", "--start", "abc", *SWEEP[3:]), "--start"),
    (("sweep", "--s", "1", *SWEEP[3:]), "--s"),
    (("sweep", "--scale", "dB", *SWEEP[1:7], "--cols", "l1"), "--scale"),
    (("mc", "--snr-db", "0", "--symbols", "1e7", "--seed", "1"), "--symbols"),
    ((*NO_COLS, "--cols", ","), "--cols"),
    ((*NO_COLS, "--cols", "bogus"), "--cols"),
    (("table", "1", "--out", "x.csv"), "--out"),
    ((*NO_COLS, "--cols"), "--cols"),
    (("--out",), "--out"),
    (("constants", "x"), "x"),
    (("command", "table", "1"), "'command'"),
    (("table", "which", "1"), "which"),
    # an echoed token escapes its non-printable characters and keeps the rest
    (("table", "1", "x\ny"), "argument: x\\ny\n"),
    (("table", "1", "x\ry"), "argument: x\\ry\n"),
    (("table", "1", "x\tyé"), "argument: x\\tyé\n"),
    (("table", "1", "--x\ny"), "argument: --x\\ny\n"),
    (("table", "1", "--x\ry"), "argument: --x\\ry\n"),
    (("table", "1", "--x\tyé"), "argument: --x\\tyé\n"),
]


def _bugfix(name, argv, canonical):
    # a row that argparse rejected: it took a value such as -1e1 for an option
    return pytest.param(argv, canonical, id="verbatim-negative-" + name)


class TestGrammar:
    """`[--out PATH] COMMAND ...`: options as `--name VALUE` or `--name=VALUE`,
    a unique prefix of a name, the last of a repeated option; VALUE is the
    next token verbatim."""

    @pytest.mark.parametrize(
        "argv, canonical",
        [
            (("--out", "{out}", *SWEEP), SWEEP),
            (("--out={out}", *SWEEP), SWEEP),
            (("--o", "{out}", *SWEEP), SWEEP),
            (("sweep", "--start=0.5", "--stop=2", "--step=0.5", "--scale=linear", "--cols=l1,ber5"), SWEEP),
            (("sweep", "--sta", "0.5", "--sto", "2", "--ste", "0.5", "--sc", "linear", "--c", "l1,ber5"), SWEEP),
            (("sweep", "--start", "9", *SWEEP[1:-2], "--cols", "u1", "--cols", "l1,ber5"), SWEEP),
            (("sweep", "--cols", "l1,ber5", "--scale", "linear", "--step", "0.5", "--stop", "2", "--start", "0.5"), SWEEP),
            (("sweep", "--start=-1e1", "--stop", "0", "--step", "5", "--scale", "db", "--cols", "l1"),
             ("sweep", "--start", "-10", "--stop", "0", "--step", "5", "--scale", "db", "--cols", "l1")),
            (("mc", "--seed", "7", "--symbols", "100000", "--snr-db", "0"), MC),
            (("--out", "{out}", "table", "2"), ("table", "2")),
            _bugfix("start", ("sweep", "--start", "-1e1", "--stop", "0", "--step", "5", "--scale", "db", "--cols", "l1"),
                    ("sweep", "--start", "-10", "--stop", "0", "--step", "5", "--scale", "db", "--cols", "l1")),
            _bugfix("repr", ("sweep", "--start", "-1e-05", "--stop", "1", "--step", "0.5", "--scale", "db", "--cols", "l1"),
                    ("sweep", "--start", "-0.00001", "--stop", "1", "--step", "0.5", "--scale", "db", "--cols", "l1")),
            _bugfix("snr-db", ("mc", "--snr-db", "-1e1", "--symbols", "100000", "--seed", "7"),
                    ("mc", "--snr-db", "-10", "--symbols", "100000", "--seed", "7")),
        ],
    )
    def test_accepted_forms_give_canonical_bytes(self, argv, canonical, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, text, err = _run(capsys, *(a.format(out=out) for a in argv))
        assert (code, err) == (0, "")
        if out.exists():
            assert text == ""
            text = out.read_text()
        assert text == _run(capsys, *canonical)[1]

    @pytest.mark.parametrize("argv, names", USAGE_ERRORS)
    def test_usage_errors_exit_2_naming_the_argument(self, argv, names, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli.main(list(argv))
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert names in captured.err, captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    @pytest.mark.parametrize("command", [(), ("table",), ("sweep",), ("mc",), ("constants",), SWEEP])
    def test_help_exits_0_with_usage(self, command, flag, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main([*command, flag])
        captured = capsys.readouterr()
        assert info.value.code == 0 and captured.err == ""
        assert captured.out.startswith("usage:")
        assert "--out PATH\n      write the CSV to PATH atomically instead of stdout\n" in captured.out


class TestOutFile:
    def test_atomic_write_matches_stdout(self, tmp_path, capsys):
        _, stdout_text, _ = _run(capsys, "table", "2")
        target = tmp_path / "table2.csv"
        code = cli.main(["--out", str(target), "table", "2"])
        capsys.readouterr()
        assert code == 0
        assert target.read_text() == stdout_text
        leftovers = [p for p in tmp_path.iterdir() if p.name != "table2.csv"]
        assert leftovers == []

    def test_missing_directory_is_domain_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = _run(capsys, "--out", str(target), "table", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_overwrite_replaces_whole_file(self, tmp_path, capsys):
        _, stdout_text, _ = _run(capsys, "table", "1")
        target = tmp_path / "t.csv"
        target.write_text("old\n" * 10_000)
        for _ in range(2):
            code = cli.main(["--out", str(target), "table", "1"])
            assert code == 0
            assert target.read_text() == stdout_text
        capsys.readouterr()
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_overwrite_replaces_symlink_not_its_target(self, tmp_path, capsys):
        _, stdout_text, _ = _run(capsys, "table", "1")
        linked = tmp_path / "linked.csv"
        linked.write_text("kept\n")
        target = tmp_path / "t.csv"
        target.symlink_to(linked)
        assert cli.main(["--out", str(target), "table", "1"]) == 0
        capsys.readouterr()
        assert not target.is_symlink() and target.read_text() == stdout_text
        assert linked.read_text() == "kept\n"

    def test_looping_symlink_is_replaced(self, tmp_path, capsys):
        _, stdout_text, _ = _run(capsys, "table", "1")
        target = tmp_path / "t.csv"
        target.symlink_to("t.csv")
        assert cli.main(["--out", str(target), "table", "1"]) == 0
        capsys.readouterr()
        assert not target.is_symlink() and target.read_text() == stdout_text
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_directory_target_is_domain_error(self, tmp_path, capsys):
        target = tmp_path / "d"
        target.mkdir()
        (target / "inside").write_text("kept\n")
        code, out, err = _run(capsys, "--out", str(target), "table", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (target / "inside").read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]

    def test_new_file_mode_follows_umask(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        old = os.umask(0o022)
        try:
            assert cli.main(["--out", str(target), "table", "1"]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_overwrite_keeps_mode(self, tmp_path, capsys):
        target = tmp_path / "t.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        for which in ("1", "2"):
            assert cli.main(["--out", str(target), "table", which]) == 0
            assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert target.read_text().startswith("gamma_db,ber4,")

    def test_temp_name_clash_fails_and_clobbers_nothing(self, tmp_path, monkeypatch, capsys):
        taken = tmp_path / ".dqpskber-0000000000000000.tmp"
        taken.write_text("kept\n")
        target = tmp_path / "t.csv"
        assert cli.main(["--out", str(target), "table", "1"]) == 0
        monkeypatch.setattr(os, "urandom", lambda n: b"\0" * n)
        code, out, err = _run(capsys, "--out", str(target), "table", "2")
        assert (code, out) == (1, "") and "File exists" in err
        assert target.read_text().startswith("gamma_db,ber,") and taken.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "t.csv"]

    def test_symlink_at_temp_name_is_not_followed(self, tmp_path, monkeypatch, capsys):
        planted = tmp_path / ".dqpskber-0000000000000000.tmp"
        aim = tmp_path / "aim"
        planted.symlink_to(aim)
        target = tmp_path / "t.csv"
        monkeypatch.setattr(os, "urandom", lambda n: b"\0" * n)
        code, out, err = _run(capsys, "--out", str(target), "table", "1")
        assert (code, out) == (1, "") and "File exists" in err
        assert not aim.exists() and not target.exists()
        assert planted.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == [planted.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_target_is_written_in_place(self, tmp_path, capsys):
        _, stdout_text, _ = _run(capsys, "table", "1")
        target = tmp_path / "out.csv"
        os.mkfifo(target)
        got = []
        reader = threading.Thread(target=lambda: got.append(target.read_bytes()), daemon=True)
        reader.start()
        code = cli.main(["--out", str(target), "table", "1"])
        reader.join(timeout=10)
        assert code == 0 and not reader.is_alive()
        assert got == [stdout_text.encode()]
        assert stat.S_ISFIFO(target.lstat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.skipif(cli._renameat2() is None, reason="no renameat2 in this C library")
    def test_exchange_swaps_two_files(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.write_text("1")
        second.write_text("2")
        if not cli._exchange(str(first), str(second)):
            pytest.skip("file system without RENAME_EXCHANGE")
        assert (first.read_text(), second.read_text()) == ("2", "1")
        assert cli._exchange(str(first), str(tmp_path / "missing")) is False
        assert (first.read_text(), second.read_text()) == ("2", "1")


class TestOutFileWithoutExchange(TestOutFile):
    """`--out` where the C library has no renameat2: `os.replace` renames
    the new file over the old name."""

    test_exchange_swaps_two_files = None  # renameat2 itself

    @pytest.fixture(autouse=True)
    def _no_renameat2(self, monkeypatch):
        monkeypatch.setattr(cli, "_renameat2", lambda: None)


def test_cell_tables_hold_ascii_in_byte_order():
    def text(table, i):
        return table[i : i + 1].view(np.uint8).tobytes()

    assert text(cli._HEAD, 123) == b",\x001.23\0\0"
    assert text(cli._HEAD, 1000) == b",-0.00\0\0"
    assert text(cli._HEAD, 1000 + 123) == b",-1.23\0\0"
    assert text(cli._TAIL, 45) == b"045" + b"\0" * 5
    assert text(cli._EXP, 330 - 7) == b"\0\0\0e-07\0"
    assert text(cli._EXP, 330 + 307) == b"\0\0\0e+307"


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_examples() -> list[str]:
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("dqpsk-ber ")]


@pytest.mark.parametrize("line", _readme_cli_examples(), ids=lambda line: line.split("#")[0].strip())
def test_readme_cli_example_exits_0(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line, comments=True)
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_lists_cli_examples():
    assert len(_readme_cli_examples()) >= 8


GOLDEN = Path(__file__).resolve().parent / "golden"
ALL_DB_SWEEP = (
    "sweep", "--start", "-10", "--stop", "30.5", "--step", "0.5", "--scale", "db",
    "--cols", "exact,l1,l2,u1,u2,u3,ber1,ber2,ber3,ber4,ber5,ber6,ber7,eps5,eps6,eps7,w5,w6,w7",
)


class TestGolden:
    """CSV bytes against files written by earlier implementations (table
    and sweep by the per-point scalar evaluation); mc_3db.csv also pins
    the Monte-Carlo draw order."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("table1.csv", ("table", "1")),
            ("table2.csv", ("table", "2")),
            ("table3.csv", ("table", "3")),
            (
                "sweep_closed_linear.csv",
                ("sweep", "--start", "0.5", "--stop", "25", "--step", "0.5", "--scale", "linear",
                 "--cols", "l1,l2,u1,u2,u3,ber1,ber2,ber3,ber4,w5,w6,w7"),
            ),
            ("mc_3db.csv", ("mc", "--snr-db", "3", "--symbols", "100000", "--seed", "42")),
            ("constants.csv", ("constants",)),
        ],
    )
    def test_byte_identical(self, capsys, name, argv):
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    def test_all_columns_db_sweep(self, capsys):
        # eps = approx/exact - 1 at high SNR is a difference of two BERs that
        # each carry ~1e-13 relative rounding from their exponents, so where
        # |eps| < 1e-5 its 6th digit is not reproducible across evaluation
        # routes; every other cell is.
        code, out, _ = _run(capsys, *ALL_DB_SWEEP)
        assert code == 0
        expected = (GOLDEN / "sweep_all_db.csv").read_text().splitlines()
        assert expected[0] == "gamma_db," + ",".join(approx.COLUMNS)
        lines = out.splitlines()
        assert lines[0] == expected[0] and len(lines) == len(expected)
        columns = lines[0].split(",")
        for line, want in zip(lines[1:], expected[1:]):
            for column, got, ref in zip(columns, line.split(","), want.split(",")):
                if got == ref:
                    continue
                assert column in ("eps5", "eps6", "eps7") and abs(float(ref)) < 1e-5, (column, got, ref)
                assert abs(float(got) - float(ref)) <= 2e-12, (column, got, ref)


def _percent(labels, columns):
    # the per-row `%` rendering the array renderer must reproduce
    row = ",".join(["%s"] + [cli._CELL] * len(columns)) + "\n"
    return "".join(row % (label, *cells) for label, cells in zip(labels, zip(*(c.tolist() for c in columns))))


def _golden_sweeps():
    # (labels, gamma_lin, columns) of the two golden sweeps, as cmd_sweep builds them
    closed = ["l1", "l2", "u1", "u2", "u3", "ber1", "ber2", "ber3", "ber4", "w5", "w6", "w7"]
    db = [-10.0 + i * 0.5 for i in range(82)]
    linear = [0.5 + i * 0.5 for i in range(50)]
    return [
        ([f"{x:.6g}" for x in db], np.array([bounds.db_to_linear(x) for x in db]), list(approx.COLUMNS)),
        ([f"{x:.6g}" for x in linear], np.array(linear), closed),
    ]


def _near_tie(x: float) -> bool:
    # whether the 6-digit rounding of x is within 2e-9 of a tie, exactly
    d = decimal.Decimal(x).copy_abs()
    y = d.scaleb(5 - d.adjusted())
    return abs(y - y.to_integral_value(decimal.ROUND_FLOOR) - decimal.Decimal("0.5")) <= decimal.Decimal("2e-9")


class TestRenderer:
    """`cli._cells`/`_rows` against `%`: a cell either renders to the
    bytes of `_CELL` or is flagged, and `_rows` writes each flagged cell
    with `%` in its own slot, so every block renders as `%` does."""

    @staticmethod
    def _doubles() -> np.ndarray:
        rng = np.random.default_rng(20120313)
        bits = rng.integers(0, 2**64, 420_000, dtype=np.uint64, endpoint=False).view(np.float64)
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        ties = np.array([float(f"{m}5e{j}") for m, j in zip(
            rng.integers(100_000, 1_000_000, 150_000).tolist(), rng.integers(-306, 294, 150_000).tolist()
        )])
        ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
        edges = np.concatenate([1e300 * (1.0 + rng.uniform(-1e-3, 1e-3, 20_000)),
                                1e-300 * (1.0 + rng.uniform(-1e-3, 1e-3, 20_000)),
                                [1e300, 1e-300, np.nextafter(1e300, 0.0), np.nextafter(1e-300, 0.0)]])
        spread = 10.0 ** rng.uniform(-320.0, 308.0, 100_000)
        golden = [np.concatenate(list(approx.evaluate(gamma, columns).values())) for _, gamma, columns in _golden_sweeps()]
        golden += [
            np.array([float(cell) for line in (GOLDEN / name).read_text().splitlines()[1:] for cell in line.split(",")[1:]])
            for name in ("sweep_all_db.csv", "sweep_closed_linear.csv")
        ]
        x = np.concatenate([tens, ties, edges, spread, *golden])
        x[rng.random(x.size) < 0.5] *= -1.0
        return np.concatenate([bits, x, [0.0, -0.0, np.inf, -np.inf, np.nan]])

    def test_cells_match_percent_on_a_million_doubles(self):
        x = self._doubles()
        assert x.size >= 10**6
        proven = np.empty(x.size, dtype=bool)
        for lo in range(0, x.size, 1 << 16):
            chunk = x[lo : lo + (1 << 16)]
            cells, ok = cli._cells(chunk.reshape(-1, 1))
            ok = ok.ravel()
            proven[lo : lo + chunk.size] = ok
            got = cells[ok].tobytes().translate(None, b"\0").decode("ascii").split(",")[1:]
            want = [cli._CELL % v for v in chunk[ok].tolist()]
            mismatches = [(g, w) for g, w in zip(got, want) if g != w]
            assert len(got) == len(want) and not mismatches, mismatches[:5]
            labels = [str(k) for k in range(chunk.size)]
            assert cli._rows(labels, chunk.reshape(-1, 1)) == _percent(labels, [chunk])
        # only nan, inf, |x| outside [1e-300, 1e300), near-ties and cells
        # `%` prints as 1.00000 (a carry into the exponent, or |x| a hair
        # above a power of ten) are unproven
        a = np.abs(x)
        outside = ~((a >= 1e-300) & (a < 1e300)) & (a != 0.0)
        assert np.array_equal(~proven & outside, outside)
        assert all(_near_tie(v) or (cli._CELL % abs(v)).startswith("1.00000e") for v in x[~proven & ~outside].tolist())
        assert proven[:420_000].mean() > 0.95  # random bit patterns, mostly in range

    @pytest.mark.parametrize("shift", [3e-6, -3e-6])
    def test_exponent_off_by_one_is_caught(self, monkeypatch, shift):
        # a log10 that errs by `shift` puts e one off next to each power of
        # ten; every cell still proven must render as `%` does
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
        x = np.concatenate([np.linspace(0.99999, 1.00001, 20001) * 10.0**j for j in (-200, -3, 0, 7, 150)])
        cells, ok = cli._cells(x.reshape(-1, 1))
        monkeypatch.undo()
        ok = ok.ravel()
        got = cells[ok].tobytes().translate(None, b"\0").decode("ascii").split(",")[1:]
        assert got == [cli._CELL % v for v in x[ok].tolist()]
        assert 0 < ok.sum() < x.size

    def test_golden_cells_take_the_array_path(self):
        for labels, gamma, columns in _golden_sweeps():
            values = [approx.evaluate(gamma, columns)[c] for c in columns]
            assert cli._rows(labels, np.column_stack(values)) == _percent(labels, values)

    def test_zero_and_unproven_blocks(self):
        labels = ["1", "-2.5", "30"]
        block = np.array([[0.0, -0.0], [1.0, -1e-300], [9.999996e5, 1e299]])
        text = cli._rows(labels, block)
        assert text == _percent(labels, list(block.T))
        assert text == "1,0.00000e+00,-0.00000e+00\n-2.5,1.00000e+00,-1.00000e-300\n30,1.00000e+06,1.00000e+299\n"
        # nan, inf, a subnormal, |x| >= 1e300, and ties at the 6th digit
        for bad in (np.nan, -np.inf, 5e-324, 1e300, 9.999995e5, 1.000005, 2.5e-7 + 5e-13):
            unproven = block.copy()
            unproven[1, 1] = bad
            assert cli._rows(labels, unproven) == _percent(labels, list(unproven.T)), bad

    def test_block_size_does_not_change_bytes(self, monkeypatch):
        def sweep():
            return cli.cmd_sweep(-10.0, 14.5, 0.5, "db", list(approx.COLUMNS))

        whole = sweep()
        monkeypatch.setattr(cli, "_ROWS", 7)
        assert sweep() == whole and whole.count("\n") == 51

    def test_unproven_blocks_fall_back_to_percent(self, monkeypatch):
        # blocks of 4 rows: the first two hold a near-tie, nan, inf and a
        # subnormal, which `%` writes in place, the last is proven throughout
        column = np.array([1.0, 2.5e-7, 0.0, -0.0, np.nan, np.inf, 5e-324, 1.000005, 3.0, -4.0])
        columns = {"l1": column, "u1": column[::-1].copy()}
        monkeypatch.setattr(cli, "_ROWS", 4)
        monkeypatch.setattr(approx, "evaluate", lambda gamma, cols: {c: columns[c] for c in cols})
        labels = [str(k) for k in range(column.size)]
        text = cli._csv("h,l1,u1", labels, np.ones(column.size), ["l1", "u1"])
        assert text == "h,l1,u1\n" + _percent(labels, [columns["l1"], columns["u1"]])
        assert "\n4,nan,inf\n5,inf,nan\n6,4.94066e-324,-0.00000e+00\n" in text
