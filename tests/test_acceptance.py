"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Several criteria assert against published reference numbers that an
independent 30-digit oracle shows to be internally corrupted (see the test
messages); those assertions fail by design rather than being weakened, and
the failure messages state exactly which cells disagree and why.
"""

import math
import time

import numpy as np
from scipy import special

from dqpskber import approx, bounds, montecarlo, specfun

from reference_tables import (
    REFERENCE_LAMBDA0_DIGITS,
    REFERENCE_RHO0_DIGITS,
    TABLE1,
    TABLE2,
    TABLE3,
)

GRID_14DB = np.logspace(-4.0, 1.4, 500)  # 1e-4 linear .. 14 dB, log-spaced
MC_SNRS_DB = (0.0, 3.0, 6.0)
MC_SEEDS = tuple(range(20))
MC_SYMBOLS = 10**7


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def _signif_digits(value: float, reference_digits: str) -> str:
    width = len(reference_digits.replace(".", "").replace("-", ""))
    return f"{value:.{width - 1}e}".split("e")[0]


def test_criterion_1_table1_reproduction():
    t0 = time.perf_counter()
    failures = []
    for gamma, refs in TABLE1.items():
        snr = bounds.SnrPoint.from_linear(float(gamma))
        aset = approx.approx_set(snr)
        values = (bounds.exact_ber(snr), aset.ber1, aset.ber2, aset.ber3)
        for column, (value, ref) in enumerate(zip(values, refs)):
            rel = abs(value - ref) / abs(ref)
            if rel > 5e-3:
                failures.append(f"row {gamma} col {column}: {value:.6e} vs {ref:.6e} (rel {rel:.2e})")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(1, "table-1 reproduction (exact, ber1..ber3, 5e-3 rel)", ok, f"{elapsed:.3f}s")
    assert elapsed < 1.0
    assert not failures, "\n".join(failures)


def test_criterion_2_table2_reproduction():
    t0 = time.perf_counter()
    failures = []
    for gamma, refs in TABLE2.items():
        snr = bounds.SnrPoint.from_linear(float(gamma))
        aset = approx.approx_set(snr)
        values = (aset.ber4, aset.ber5, aset.ber6, aset.ber7)
        for name, value, ref in zip(("ber4", "ber5", "ber6", "ber7"), values, refs):
            rel = abs(value - ref) / abs(ref)
            if rel > 5e-3:
                failures.append(f"row {gamma} {name}: {value:.6e} vs {ref:.6e} (rel {rel:.2e})")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(2, "table-2 reproduction (ber4..ber7, 5e-3 rel)", ok, f"{elapsed:.3f}s, {len(failures)} cells off")
    assert elapsed < 1.0
    assert not failures, (
        "cells that the displayed closed forms cannot reproduce; an independent "
        "30-digit oracle shows the published ber4 column equals its second term "
        "plus a CONSTANT 7.418e-5 (the first term frozen at a stale value) and "
        "the ber5 values at rows 1-4 follow an earlier fit of its weight:\n"
        + "\n".join(failures)
    )


def test_criterion_3_table3_reproduction():
    t0 = time.perf_counter()
    failures = []
    for gamma, refs in TABLE3.items():
        snr = bounds.SnrPoint.from_linear(float(gamma))
        aset = approx.approx_set(snr)
        values = (aset.eps5, aset.eps6, aset.eps7)
        for name, value, ref in zip(("eps5", "eps6", "eps7"), values, refs):
            tol = max(5e-3 * abs(ref), 2e-6)
            err = abs(value - ref)
            if err > tol:
                failures.append(
                    f"row {gamma} {name}: {value:.6e} vs {ref:.6e} (err {err:.2e} > tol {tol:.2e})"
                )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    _report(3, "table-3 reproduction (eps5..eps7)", ok, f"{elapsed:.3f}s, {len(failures)} cells off")
    assert elapsed < 1.0
    assert not failures, (
        "relative-error cells the displayed weights cannot reproduce (eps5 rows 1-4 "
        "inherit the corrupted ber5 fit; the eps7 row-5 miss is 1.38x tolerance and "
        "consistent with the reference printing truncated rather than rounded digits):\n"
        + "\n".join(failures)
    )


def test_criterion_4_constants():
    consts = bounds.solve_rho0()
    residual = abs(
        (consts.rho0 + 1.0) * special.i1(consts.rho0)
        - consts.rho0 * special.i0(consts.rho0)
    )
    rho_digits = _signif_digits(consts.rho0, REFERENCE_RHO0_DIGITS)
    lambda_digits = _signif_digits(consts.lambda0, REFERENCE_LAMBDA0_DIGITS)
    residual_ok = residual < 1e-14
    rho_ok = rho_digits == REFERENCE_RHO0_DIGITS
    lambda_ok = lambda_digits == REFERENCE_LAMBDA0_DIGITS
    _report(
        4,
        "constants vs reference digits + residual",
        residual_ok and rho_ok and lambda_ok,
        f"residual {residual:.2e}, solver rho0 {rho_digits}, lambda0 {lambda_digits}",
    )
    assert residual_ok
    assert rho_ok and lambda_ok, (
        "the solver root satisfies the defining equation to "
        f"{residual:.1e} but its digits {rho_digits} / {lambda_digits} do not match "
        f"the reference strings {REFERENCE_RHO0_DIGITS} / {REFERENCE_LAMBDA0_DIGITS}; "
        "the reference rho0 leaves a residual of -4.7e-7 in the defining equation "
        "(verified with two independent 60-digit methods), so matching the printed "
        "digits and the residual bound simultaneously is impossible"
    )


def test_criterion_5_bound_ordering_chain():
    ties = []
    crossings = []
    for g in GRID_14DB:
        snr = bounds.SnrPoint.from_linear(float(g))
        bs = bounds.bound_set(snr)
        exact = bounds.exact_ber(snr)
        if not bs.l1 < bs.l2:
            (ties if bs.l1 == bs.l2 else crossings).append(("l1<l2", g, bs.l1, bs.l2))
        if not bs.l2 <= exact:
            crossings.append(("l2<=exact", g, bs.l2, exact))
        if not exact <= min(bs.u2, bs.u3):
            crossings.append(("exact<=min(u2,u3)", g, exact, min(bs.u2, bs.u3)))
        if not min(bs.u2, bs.u3) <= bs.u1:
            crossings.append(("min(u2,u3)<=u1", g, min(bs.u2, bs.u3), bs.u1))
    ok = not ties and not crossings
    _report(
        5,
        "strict bound ordering on 500-point grid to 14 dB",
        ok,
        f"{len(crossings)} crossings, {len(ties)} float ties",
    )
    assert not crossings, crossings
    assert not ties, (
        f"{len(ties)} grid points above ~13 linear SNR where l1 == l2 to the last "
        "bit: the true gap (l2-l1)/l2 ~ 0.83 exp(-2 sqrt(2) gamma) drops below "
        "machine epsilon there, so the strict inequality is unrepresentable in "
        "float64 (the order never inverts; see the non-strict full-range check in "
        "the bounds tests)"
    )


def test_criterion_6_oracle_equivalence():
    worst_marcum = 0.0
    worst_identity = 0.0
    for g in GRID_14DB:
        snr = bounds.SnrPoint.from_linear(float(g))
        p = bounds.channel_params(snr)
        q_quad = specfun.marcum_q_quad(p.a, p.b)
        q_series = specfun.marcum_q_series(p.a, p.b)
        worst_marcum = max(worst_marcum, abs(q_series - q_quad) / q_quad)
        bs = bounds.bound_set(snr)
        for closed, mean in (
            (approx.ber1(snr), approx.weighted_mean(bs.l1, bs.u1, 0.5)),
            (approx.ber2(snr), approx.weighted_mean(bs.l2, bs.u2, 0.5)),
            (approx.ber3(snr), approx.weighted_mean(bs.l2, bs.u3, 0.5)),
        ):
            worst_identity = max(worst_identity, abs(closed - mean) / abs(mean))
    ok = worst_marcum <= 1e-9 and worst_identity <= 1e-12
    _report(
        6,
        "series/quadrature and closed-form/mean equivalence",
        ok,
        f"marcum worst {worst_marcum:.2e}, identity worst {worst_identity:.2e}",
    )
    assert worst_marcum <= 1e-9
    assert worst_identity <= 1e-12


def test_criterion_7_monte_carlo_containment():
    t0 = time.perf_counter()
    contained = 0
    total = 0
    for db in MC_SNRS_DB:
        snr = bounds.SnrPoint.from_db(db)
        exact = bounds.exact_ber(snr)
        for seed in MC_SEEDS:
            result = montecarlo.simulate(
                montecarlo.McConfig(snr=snr, num_symbols=MC_SYMBOLS, seed=seed)
            )
            total += 1
            contained += int(abs(result.ber_estimate - exact) <= result.ci_half_width)
    elapsed = time.perf_counter() - t0
    rate = contained / total
    ok = rate >= 0.9 and elapsed < 60.0
    _report(
        7,
        "Monte-Carlo 99% CI containment at 0/3/6 dB",
        ok,
        f"{contained}/{total} contained, {elapsed:.1f}s",
    )
    assert elapsed < 60.0
    assert rate >= 0.9


def test_criterion_8_figure_envelope():
    violations = []
    worst = 0.0
    for g in np.arange(0.05, 1.5001, 0.05):
        snr = bounds.SnrPoint.from_linear(float(g))
        exact = bounds.exact_ber(snr)
        bs = bounds.bound_set(snr)
        for name, value in (("l1", bs.l1), ("l2", bs.l2), ("u1", bs.u1), ("u2", bs.u2), ("u3", bs.u3)):
            rel = abs(value - exact) / exact
            if g >= 0.5:
                worst = max(worst, rel)
                if rel > 0.15:
                    violations.append(f"gamma {g:.2f} {name}: rel {rel:.3f}")
    ok = not violations
    _report(
        8,
        "all five bounds within 15% of exact on [0.5, 1.5]",
        ok,
        f"worst {worst:.3f}",
    )
    assert not violations, (
        "the 15% envelope does not hold for the widest bounds at low SNR (the "
        "independent oracle puts the true envelope at 39% at gamma 0.5, with u1 "
        "alone 27% off at gamma 1.0); bounds tighten below 1% only for gamma "
        "beyond ~4:\n" + "\n".join(violations)
    )
