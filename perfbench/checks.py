"""Correctness checks applied to every benchmark output.

Nothing here calls the package: sweep rows are checked from the CSV the
CLI wrote, and sampled rows are compared with mpmath references that
share no code with it. Each check returns a list of violation strings;
an empty list means the output passed.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

# A CSV value carries 6 significant digits, so it is within 5e-6 of the
# double it was printed from; the package claims 1e-9 or better on top.
CSV_REL_TOL = 5e-6 + 1e-9

# Below 2.2e-308 a double is subnormal and carries fewer than 6 digits:
# its spacing is 2**-1074. Two units of that spacing cover representing
# the value and rounding the one subtraction that produces `exact`.
SUBNORMAL_SLACK = 2.0 * 2.0**-1074

# The bound chain l1 <= l2 <= exact <= u2 and exact <= u3 <= u1, as
# (smaller, larger) pairs. Without an `exact` column l2 <= u2 and
# l2 <= u3 still follow from it.
CHAIN_WITH_EXACT = (("l1", "l2"), ("l2", "exact"), ("exact", "u2"), ("exact", "u3"), ("u3", "u1"))
CHAIN_WITHOUT_EXACT = (("l1", "l2"), ("l2", "u2"), ("l2", "u3"), ("u3", "u1"))

# ber1..ber3 are the midpoints of (l1, u1), (l2, u2) and (l2, u3).
MIDPOINTS = (("ber1", "l1", "u1"), ("ber2", "l2", "u2"), ("ber3", "l2", "u3"))

_MP_DPS = 35


def parse_sweep(text: str, columns: list[str], scale: str, grid: list[float]) -> tuple[list[dict], list[str]]:
    """Parse sweep CSV into one dict per row and check its layout.

    `grid` holds the grid values the CLI was asked for, in order; the
    first CSV field of each row must be that value printed as %.6g.
    """
    lines = text.split("\n")
    problems = []
    header = ",".join(["gamma_db" if scale == "db" else "gamma_lin"] + columns)
    if not lines or lines[0] != header:
        return [], [f"header {lines[0] if lines else ''!r} != {header!r}"]
    if lines[-1] != "":
        problems.append("output does not end with a newline")
    body = lines[1:-1]
    if len(body) != len(grid):
        return [], problems + [f"{len(body)} rows, expected {len(grid)}"]
    rows = []
    for i, (line, grid_value) in enumerate(zip(body, grid)):
        fields = line.split(",")
        if len(fields) != len(columns) + 1:
            problems.append(f"row {i}: {len(fields)} fields, expected {len(columns) + 1}")
            continue
        if fields[0] != f"{grid_value:.6g}":
            problems.append(f"row {i}: grid {fields[0]!r} != {grid_value:.6g}")
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            problems.append(f"row {i}: unparseable field in {line!r}")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"row {i}: non-finite value in {line!r}")
            continue
        rows.append(dict(zip(columns, values)))
    return rows, problems


def check_sweep_row(row: dict) -> list[str]:
    """Bound chain, weight range and midpoint identities on one parsed row."""
    problems = []
    chain = CHAIN_WITH_EXACT if "exact" in row else CHAIN_WITHOUT_EXACT
    for lo, hi in chain:
        if lo in row and hi in row and not row[lo] <= row[hi] + SUBNORMAL_SLACK:
            problems.append(f"{lo}={row[lo]:.5e} > {hi}={row[hi]:.5e}")
    for w in ("w5", "w6", "w7"):
        if w in row and not 0.0 <= row[w] <= 1.0:
            problems.append(f"{w}={row[w]:.5e} outside [0, 1]")
    for mid, lo, hi in MIDPOINTS:
        if mid in row and lo in row and hi in row:
            # The closed forms are products of tiny factors and lose digits
            # once a value is subnormal (ber2 reaches 0.0 at 30.995 dB while
            # l2 and u2 are still 1.4e-322), so the identity is only held
            # where all three are normal doubles.
            if min(abs(row[mid]), abs(row[lo]), abs(row[hi])) < sys.float_info.min:
                continue
            expected = 0.5 * (row[lo] + row[hi])
            tol = CSV_REL_TOL * (abs(row[mid]) + 0.5 * abs(row[lo]) + 0.5 * abs(row[hi]))
            if abs(row[mid] - expected) > tol:
                problems.append(f"{mid}={row[mid]:.5e} != ({lo}+{hi})/2={expected:.5e}")
    return problems


def check_sweep(text: str, columns: list[str], scale: str, grid: list[float]) -> tuple[list[dict], list[str]]:
    """Layout plus per-row checks of one sweep output."""
    rows, problems = parse_sweep(text, columns, scale, grid)
    for i, row in enumerate(rows):
        problems.extend(f"row {i}: {p}" for p in check_sweep_row(row))
    return rows, problems


def _channel(gamma_lin: float) -> tuple[mp.mpf, mp.mpf]:
    g = mp.mpf(gamma_lin)
    s2 = mp.sqrt(2)
    return mp.sqrt(g * (2 - s2)), mp.sqrt(g * (2 + s2))


def _trapezoid_ber(g: mp.mpf, nodes: int) -> mp.mpf:
    s2 = mp.sqrt(2)
    h = 2 * mp.pi / nodes
    total = mp.mpf(0)
    for k in range(nodes):
        s = mp.sin(-mp.pi + k * h)
        total += mp.exp(-g * (2 + s2 * s)) / (s2 + s)
    return total * h / (4 * mp.pi)


def exact_ber_mp(gamma_lin: float) -> mp.mpf:
    """Exact BER at 35 digits from the single-angle form.

    BER = (1/4 pi) int_{-pi}^{pi} exp(-g (2 + sqrt2 sin t)) / (sqrt2 + sin t) dt
    (Pawula-Rice-Roberts; Simon-Alouini). The integrand is periodic,
    analytic and positive, so the trapezoid rule converges geometrically;
    the value is accepted only when doubling the node count leaves it
    unchanged to 1e-25.
    """
    with mp.workdps(_MP_DPS):
        g = mp.mpf(gamma_lin)
        nodes = int(200 + 64 * math.sqrt(gamma_lin))
        coarse = _trapezoid_ber(g, nodes)
        fine = _trapezoid_ber(g, 2 * nodes)
        if abs(coarse - fine) > mp.mpf("1e-25") * fine:
            raise ArithmeticError(f"trapezoid reference did not converge at g={gamma_lin!r}")
        return +fine


def ber1_mp(gamma_lin: float) -> mp.mpf:
    """sqrt(pi/8) (a+b) exp(-ab) I0(ab) erfc((b-a)/sqrt2) at 35 digits."""
    with mp.workdps(_MP_DPS):
        a, b = _channel(gamma_lin)
        return mp.sqrt(mp.pi / 8) * (a + b) * mp.exp(-a * b) * mp.besseli(0, a * b) * mp.erfc((b - a) / mp.sqrt(2))


def ber4_mp(gamma_lin: float) -> mp.mpf:
    """exp(-(b+a)^2/2)/sqrt(8 pi ab) + (1/4)(sqrt(a/b)+sqrt(b/a)) E(a,b) at 35 digits."""
    with mp.workdps(_MP_DPS):
        a, b = _channel(gamma_lin)
        s2 = mp.sqrt(2)
        big_e = mp.erfc((b - a) / s2) - mp.erfc((b + a) / s2)
        return mp.exp(-((b + a) ** 2) / 2) / mp.sqrt(8 * mp.pi * a * b) + (mp.sqrt(a / b) + mp.sqrt(b / a)) * big_e / 4


def _close(value: float, reference: mp.mpf) -> bool:
    return abs(mp.mpf(value) - reference) <= CSV_REL_TOL * abs(reference) + SUBNORMAL_SLACK


def check_row_against_oracle(gamma_lin: float, row: dict) -> list[str]:
    """Compare one parsed sweep row with the mpmath references.

    `exact`, `ber1` and `ber4` must match to the CSV's 6 digits, and the
    bounds present must bracket the reference exact value.
    """
    problems = []
    exact = exact_ber_mp(gamma_lin)
    if "exact" in row and not _close(row["exact"], exact):
        problems.append(f"exact={row['exact']:.5e} vs mpmath {mp.nstr(exact, 12)}")
    for name, reference in (("ber1", ber1_mp), ("ber4", ber4_mp)):
        if name in row:
            ref = reference(gamma_lin)
            if not _close(row[name], ref):
                problems.append(f"{name}={row[name]:.5e} vs mpmath {mp.nstr(ref, 12)}")
    slack = CSV_REL_TOL * abs(exact) + SUBNORMAL_SLACK
    for lower in ("l1", "l2"):
        if lower in row and mp.mpf(row[lower]) > exact + slack:
            problems.append(f"{lower}={row[lower]:.5e} above mpmath exact {mp.nstr(exact, 12)}")
    for upper in ("u1", "u2", "u3"):
        if upper in row and mp.mpf(row[upper]) < exact - slack:
            problems.append(f"{upper}={row[upper]:.5e} below mpmath exact {mp.nstr(exact, 12)}")
    return [f"g={gamma_lin!r}: {p}" for p in problems]


def check_mc(result, num_symbols: int, exact: float) -> list[str]:
    """A Monte-Carlo result must count 2N bits and sit within 5 standard errors of `exact`."""
    problems = []
    if result.bits_sent != 2 * num_symbols:
        problems.append(f"bits_sent={result.bits_sent} != 2N={2 * num_symbols}")
    if result.bits_sent > 0 and result.ber_estimate != result.bit_errors / result.bits_sent:
        problems.append(f"ber_estimate={result.ber_estimate!r} != bit_errors/bits_sent")
    se = math.sqrt(exact * (1.0 - exact) / (2 * num_symbols))
    if not abs(result.ber_estimate - exact) <= 5.0 * se:
        problems.append(f"estimate {result.ber_estimate:.6e} is {abs(result.ber_estimate - exact) / se:.1f} SE from {exact:.6e}")
    return problems
