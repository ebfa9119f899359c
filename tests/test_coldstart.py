"""Cold start: importing the package, the exact BER (scalar, array and
`sweep --cols exact`), the weights (omega5..omega7 and their columns), the
stored constants, the CLI's usage and its Monte-Carlo run load numpy but
not scipy, and the usage no argparse; the closed forms import
scipy.special on first use, from any thread. Each check runs in a fresh
interpreter, because the test process has scipy loaded already."""

import contextlib
import dataclasses
import io
from pathlib import Path

import numpy as np

from dqpskber import SnrPoint, approx, approx_set, cli, evaluate, solve_rho0

GOLDEN = Path(__file__).parent / "golden"
SWEEP_EXACT = ["sweep", "--start", "-10", "--stop", "30", "--step", "0.5", "--scale", "db", "--cols", "exact"]


def test_import_exact_ber_and_help_load_no_scipy(fresh):
    got = fresh(
        """
        import contextlib, dataclasses, io, json, sys
        import numpy as np
        import dqpskber, dqpskber.cli
        from dqpskber import SnrPoint, approx, approx_set, evaluate, exact_ber, solve_rho0

        exact_ber(SnrPoint.from_db(6))
        constants = dataclasses.astuple(solve_rho0())
        g = np.linspace(0.5, 40.0, 101)
        exact = evaluate(g, ["exact"])["exact"].tolist()
        omegas = [approx.omega5(g).tolist(), approx.omega6(0.0), approx.omega7(8.0)]
        weights = {k: v.tolist() for k, v in evaluate(g, ["w5", "w6", "w7"]).items()}
        with contextlib.redirect_stdout(io.StringIO()) as sweep:
            code = dqpskber.cli.main(SWEEP)
        with contextlib.redirect_stdout(io.StringIO()) as usage:
            try:
                dqpskber.cli.main(["--help"])
            except SystemExit:
                pass
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        argparse = "argparse" in sys.modules
        closed = dataclasses.astuple(approx_set(SnrPoint.from_db(6)))
        print(json.dumps({"scipy": loaded, "argparse": argparse, "usage": usage.getvalue(), "closed": closed,
                          "exact": exact, "code": code, "sweep": sweep.getvalue(), "constants": constants,
                          "omegas": omegas, "weights": weights}))
        """.replace("SWEEP", repr(SWEEP_EXACT))
    )
    assert got["scipy"] == []
    assert got["argparse"] is False
    assert got["usage"].startswith("usage:")
    assert tuple(got["closed"]) == dataclasses.astuple(approx_set(SnrPoint.from_db(6)))
    assert tuple(got["constants"]) == dataclasses.astuple(solve_rho0())
    g = np.linspace(0.5, 40.0, 101)
    assert got["exact"] == evaluate(g, ["exact"])["exact"].tolist()
    assert got["omegas"] == [approx.omega5(g).tolist(), approx.omega6(0.0), approx.omega7(8.0)]
    assert got["weights"] == {k: v.tolist() for k, v in evaluate(g, ["w5", "w6", "w7"]).items()}
    with contextlib.redirect_stdout(io.StringIO()) as sweep:
        assert cli.main(SWEEP_EXACT) == got["code"] == 0
    assert got["sweep"] == sweep.getvalue()


def test_mc_loads_no_scipy(fresh):
    got = fresh(
        """
        import contextlib, io, json, sys
        from dqpskber import cli

        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["mc", "--snr-db", "3", "--symbols", "100000", "--seed", "42"])
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        print(json.dumps({"code": code, "scipy": loaded, "out": out.getvalue()}))
        """
    )
    assert got["code"] == 0
    assert got["scipy"] == []
    assert got["out"].encode() == (GOLDEN / "mc_3db.csv").read_bytes()


def test_concurrent_first_closed_form_calls_agree(fresh):
    got = fresh(
        """
        import json, sys, threading
        import numpy as np
        from dqpskber import approx

        g = np.linspace(0.5, 25.0, 50)
        loaded = "scipy" in sys.modules
        start = threading.Barrier(2)
        results, errors = [None, None], []

        def first_call(i):
            start.wait()
            try:
                results[i] = approx.evaluate(g, approx.COLUMNS)
            except Exception as exc:
                errors.append(repr(exc))

        threads = [threading.Thread(target=first_call, args=(i,), daemon=True) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        alive = any(t.is_alive() for t in threads)
        serial = approx.evaluate(g, approx.COLUMNS)
        agree = all(
            r is not None and all(np.array_equal(r[c], serial[c]) for c in approx.COLUMNS)
            for r in results
        )
        print(json.dumps({"scipy": loaded, "alive": alive, "errors": errors, "agree": agree}))
        """
    )
    assert got["scipy"] is False
    assert got["alive"] is False
    assert got["errors"] == []
    assert got["agree"] is True
