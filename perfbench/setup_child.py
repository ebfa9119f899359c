"""Set-up as a user pays it: a fresh interpreter imports the package and
computes one exact BER. Run as `python setup_child.py SRC_DIR [--detail]`.

With --detail it also times the first (uncached) `solve_rho0()` call
and prints the three timings as JSON; the parent adds `-X importtime`
in that case to split import time by package.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dqpskber  # noqa: E402

t1 = time.perf_counter()
value = dqpskber.exact_ber(dqpskber.SnrPoint.from_linear(1.0))
t2 = time.perf_counter()
if not 0.0 < value < 0.5:
    sys.exit(f"first exact_ber returned {value!r}")
if "--detail" in sys.argv[2:]:
    dqpskber.solve_rho0()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "exact_ber_s": t2 - t1, "solve_rho0_s": t3 - t2}))
