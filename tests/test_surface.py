"""The public surface is what the README documents: every name in
`dqpskber.__all__` exists on the package and is named in README.md. Each
name is declared once, in the `__all__` of the module that defines it, and
the package's `__all__` is their concatenation. The Marcum Q cross-checks
are not part of it, but stay reachable as `dqpskber.specfun.*`, where
perfbench probes and traces them."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import dqpskber
from dqpskber import approx, bounds, montecarlo

README = Path(__file__).resolve().parent.parent / "README.md"
# a span written in the README names each of its members
SPANS = {"ber1..ber7": [f"ber{k}" for k in range(1, 8)], "omega5..omega7": [f"omega{k}" for k in range(5, 8)]}
# the modules whose `__all__` the package concatenates, in its order
EXPORTING = (approx, bounds, montecarlo)


def _fresh(script: str):
    """The JSON that `script` prints, run in a new interpreter on this checkout's package."""
    src = str(Path(dqpskber.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


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
    assert _fresh(script) == {
        "same_module": True,
        "routes": ["bessel_i0_scaled", "marcum_q_quad", "marcum_q_series"],
        "exported": [],
    }


def test_each_public_name_is_declared_once_in_its_module():
    for module in EXPORTING:
        foreign = [name for name in module.__all__ if getattr(module, name).__module__ != module.__name__]
        assert foreign == [], module.__name__
    names = [name for module in EXPORTING for name in module.__all__]
    assert sorted(set(names)) == sorted(names)
    assert dqpskber.__all__ == names
    script = """
        import json
        namespace = {}
        exec("from dqpskber import *", namespace)
        import dqpskber
        print(json.dumps([sorted(set(namespace) - {"__builtins__"}), sorted(dqpskber.__all__)]))
    """
    bound, exported = _fresh(script)
    assert bound == exported == sorted(names)
