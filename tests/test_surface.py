"""The public surface is what the README documents: every name in
`dqpskber.__all__` exists on the package and is named in README.md. The
Marcum Q cross-checks are not part of it, but stay reachable as
`dqpskber.specfun.*`, where perfbench probes and traces them."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import dqpskber

README = Path(__file__).resolve().parent.parent / "README.md"
# a span written in the README names each of its members
SPANS = {"ber1..ber7": [f"ber{k}" for k in range(1, 8)], "omega5..omega7": [f"omega{k}" for k in range(5, 8)]}


def test_every_exported_name_is_documented():
    readme = README.read_text()
    named = set(re.findall(r"\w+", readme))
    named.update(*(members for span, members in SPANS.items() if span in readme))
    assert [name for name in dqpskber.__all__ if not hasattr(dqpskber, name)] == []
    assert [name for name in dqpskber.__all__ if name not in named] == []


def test_cross_checks_are_reached_through_specfun_only():
    script = """
        import json, sys
        import dqpskber
        routes = ("bessel_i0_scaled", "marcum_q_quad", "marcum_q_series")
        specfun = getattr(dqpskber, "specfun", None)
        print(json.dumps({
            "same_module": specfun is not None and specfun is sys.modules.get("dqpskber.specfun"),
            "routes": [r for r in routes if callable(getattr(specfun, r, None))],
            "exported": [r for r in routes if r in dqpskber.__all__ or hasattr(dqpskber, r)],
        }))
    """
    src = str(Path(dqpskber.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "same_module": True,
        "routes": ["bessel_i0_scaled", "marcum_q_quad", "marcum_q_series"],
        "exported": [],
    }
