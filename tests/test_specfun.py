import math

import numpy as np
import pytest
from scipy import special

from dqpskber import bounds, specfun

import oracles

# fixed oracle values, frozen from the 30-digit reference
I0_AT_1 = 1.2660658777520083
I1_AT_1 = 0.56515910399248503
I0E_AT_22_38 = 0.084813037733169698
I0E_AT_1000 = 0.012617240455891257
E_FN_AT_G1 = 0.27907829257245001
BIG_E_AT_G1 = 0.2701064688282035
MARCUM_AT_G1 = 0.26988066883488477
A_G1 = 0.76536686473017954
B_G1 = 1.8477590650225735


class TestBesselI0:
    def test_at_zero(self):
        assert special.i0(0.0) == 1.0

    def test_at_one(self):
        assert special.i0(1.0) == pytest.approx(I0_AT_1, rel=1e-13)

    def test_against_reference_on_grid(self):
        for x in np.logspace(-8, np.log10(700), 60):
            assert oracles.rel_err(special.i0(x), oracles.ref_i0(x)) <= 1e-13

    def test_crossover_continuity(self):
        for x in (17.9, 18.0, 18.0000001, 18.1):
            assert oracles.rel_err(special.i0(x), oracles.ref_i0(x)) <= 1e-13

    def test_scaled_consistency(self):
        for x in np.logspace(-6, np.log10(700), 40):
            lhs = special.i0(x)
            rhs = math.exp(x) * specfun.bessel_i0_scaled(x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBesselI0Scaled:
    def test_at_zero(self):
        assert specfun.bessel_i0_scaled(0.0) == 1.0

    def test_spot_values(self):
        assert specfun.bessel_i0_scaled(22.38) == pytest.approx(I0E_AT_22_38, rel=1e-13)
        assert specfun.bessel_i0_scaled(22.38) < 0.09
        assert specfun.bessel_i0_scaled(1000.0) == pytest.approx(I0E_AT_1000, rel=1e-12)

    def test_two_term_asymptotic_at_1000(self):
        leading_two_terms = (1.0 + 1.0 / 8000.0) / math.sqrt(2000.0 * math.pi)
        assert specfun.bessel_i0_scaled(1000.0) == pytest.approx(leading_two_terms, rel=1e-6)

    def test_strictly_decreasing(self):
        xs = np.logspace(-4, 6, 200)
        vals = [specfun.bessel_i0_scaled(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        for x in np.logspace(-8, 8, 50):
            assert 0.0 < specfun.bessel_i0_scaled(x) <= 1.0

    def test_no_overflow_at_huge_argument(self):
        assert math.isfinite(specfun.bessel_i0_scaled(1e308))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            specfun.bessel_i0_scaled(-1.0)

    def test_against_reference_on_grid(self):
        # up to ab = g sqrt(2) at 40 dB
        for x in np.logspace(-8, np.log10(2e4), 60):
            assert oracles.rel_err(specfun.bessel_i0_scaled(x), oracles.ref_i0_scaled(x)) <= 1e-13


class TestBesselI1Scaled:
    def test_against_reference_on_grid(self):
        for x in np.logspace(-8, np.log10(2e4), 60):
            assert oracles.rel_err(special.i1e(x), oracles.ref_i1_scaled(x)) <= 1e-13


class TestBesselI1:
    def test_at_zero(self):
        assert special.i1(0.0) == 0.0

    def test_at_one(self):
        assert special.i1(1.0) == pytest.approx(I1_AT_1, rel=1e-13)

    def test_against_reference_on_grid(self):
        for x in np.logspace(-8, np.log10(700), 60):
            assert oracles.rel_err(special.i1(x), oracles.ref_i1(x)) <= 1e-13

    def test_scaled_consistency(self):
        for x in (0.5, 7.0, 17.9, 18.1, 120.0, 650.0):
            lhs = special.i1(x)
            rhs = math.exp(x) * special.i1e(x)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_bessel_order_inequalities():
    # I0 >= 1 everywhere, I1 < I0 strictly for x > 0
    for x in np.logspace(-8, 4, 60):
        i0e = special.i0e(x)
        i1e = special.i1e(x)
        assert i1e < i0e
        assert special.i0e(0.0) == 1.0
        assert i1e >= 0.0


class TestErfc:
    # through erfcx(x) = exp(x^2) erfc(x), the form the formula table uses
    def test_at_zero(self):
        assert special.erfcx(0.0) == 1.0

    def test_tail_positivity(self):
        v = special.erfcx(10.0) * math.exp(-100.0)
        assert 0.0 < v < 1e-43

    def test_reflection(self):
        # erfc(x) + erfc(-x) = 2
        for x in np.linspace(-6.0, 6.0, 49):
            assert (special.erfcx(x) + special.erfcx(-x)) * math.exp(-x * x) == pytest.approx(2.0, abs=1e-14)

    def test_strictly_decreasing(self):
        xs = np.linspace(-5.5, 8.0, 100)
        vals = [special.erfcx(x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_reference_on_grid(self):
        for x in np.linspace(-6.0, 26.0, 80):
            assert oracles.rel_err(special.erfcx(x), oracles.ref_erfcx(x)) <= 1e-13


def _entries(g, *names):
    """The named entries of the formula table at the linear SNRs `g`."""
    values = bounds._evaluate(np.atleast_1d(np.asarray(g, dtype=float)), names, bounds._FORMULAS)
    return [values[name] for name in names]


class TestTailWeights:
    # the table's e = erfc((b-a)/sqrt2) and big_e = e - erfc((b+a)/sqrt2)
    def test_e_fn_at_unit_snr(self):
        assert B_G1 - A_G1 == pytest.approx(1.082392200292394, rel=1e-13)
        assert _entries(1.0, "e")[0][0] == pytest.approx(E_FN_AT_G1, rel=1e-13)

    def test_e_fn_vanishes_at_high_snr(self):
        assert _entries(1e4, "e")[0][0] < 1e-300

    def test_E_fn_at_unit_snr(self):
        assert _entries(1.0, "big_e")[0][0] == pytest.approx(BIG_E_AT_G1, rel=1e-13)

    def test_E_fn_matches_quadrature(self):
        # independent check of the integral form with scipy quadrature
        from scipy.integrate import quad

        lo = (B_G1 - A_G1) / math.sqrt(2.0)
        hi = (B_G1 + A_G1) / math.sqrt(2.0)
        integral, _ = quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), lo, hi)
        assert _entries(1.0, "big_e")[0][0] == pytest.approx(integral, abs=1e-10)

    def test_E_fn_below_e_fn(self):
        e, big_e = _entries(2.0, "e", "big_e")
        assert big_e[0] < e[0]

    def test_range(self):
        (big_e,) = _entries(np.logspace(-6, 2, 30), "big_e")
        assert np.all((0.0 < big_e) & (big_e < 2.0))


class TestMarcumQ:
    def test_b_zero_is_one(self):
        assert specfun.marcum_q_quad(1.7, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert specfun.marcum_q_series(1.7, 0.0) == 1.0

    def test_small_a_limit(self):
        assert specfun.marcum_q_quad(1e-12, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-9)

    def test_unit_snr_value(self):
        assert specfun.marcum_q_quad(A_G1, B_G1) == pytest.approx(MARCUM_AT_G1, rel=1e-10)

    def test_against_reference_on_grid(self):
        for g in np.logspace(-3, 1.4, 25):
            a = math.sqrt(g * (2.0 - math.sqrt(2.0)))
            b = math.sqrt(g * (2.0 + math.sqrt(2.0)))
            ref = oracles.ref_marcum(a, b)
            assert oracles.rel_err(specfun.marcum_q_quad(a, b), ref) <= 1e-10
            assert oracles.rel_err(specfun.marcum_q_series(a, b), ref) <= 1e-10

    def test_series_quad_agreement_on_db_grid(self):
        for db in np.linspace(0.5, 14.0, 28):
            g = 10.0 ** (db / 10.0)
            a = math.sqrt(g * (2.0 - math.sqrt(2.0)))
            b = math.sqrt(g * (2.0 + math.sqrt(2.0)))
            q_quad = specfun.marcum_q_quad(a, b)
            q_series = specfun.marcum_q_series(a, b)
            assert q_series == pytest.approx(q_quad, rel=1e-9)

    def test_series_for_a_at_least_b(self):
        # (5, 0.1), (2, 0.01) and (30, 1): a/b so large that (a/b)^k overflows
        # where exp(-ab) I_k(ab) underflows, if the series is summed directly
        cases = ((3.0, 1.0), (1.0, 0.9), (5.0, 4.9), (2.0, 2.0), (20.0, 10.0),
                 (5.0, 0.1), (2.0, 0.01), (30.0, 1.0))
        for a, b in cases:
            q = specfun.marcum_q_series(a, b)
            assert q <= 1.0, (a, b)
            assert oracles.rel_err(q, oracles.ref_marcum(a, b)) <= 1e-12, (a, b)

    def test_series_extreme_ratio(self):
        # a/b underflows to 0 and the Gaussian factor to 0: the value is 0 (or 1 swapped)
        assert specfun.marcum_q_series(1e-300, 1e30) == 0.0
        assert specfun.marcum_q_series(1e30, 1e-300) == 1.0

    def test_monotone_in_each_argument(self):
        # decreasing in b at fixed a, increasing in a at fixed b (b >= a > 0)
        bs = np.linspace(1.0, 6.0, 12)
        vals = [specfun.marcum_q_quad(0.8, b) for b in bs]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        avals = np.linspace(0.05, 2.0, 12)
        vals = [specfun.marcum_q_quad(a, 2.5) for a in avals]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.marcum_q_quad(0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.marcum_q_quad(-1.0, 1.0)
        with pytest.raises(ValueError):
            specfun.marcum_q_quad(1.0, -0.1)
        with pytest.raises(ValueError):
            specfun.marcum_q_quad(float("nan"), 1.0)


def test_marcum_level_bound_sandwich():
    # the exponential-type bounds bracket Q, and the sharper pair nests inside
    sqrt_half_pi = math.sqrt(0.5 * math.pi)
    for g in np.logspace(-2, 1.2, 15):
        a = math.sqrt(g * (2.0 - math.sqrt(2.0)))
        b = math.sqrt(g * (2.0 + math.sqrt(2.0)))
        ab = a * b
        ive = specfun.bessel_i0_scaled(ab)
        e, big_e = (float(v[0]) for v in _entries(g, "e", "big_e"))
        q = specfun.marcum_q_quad(a, b)
        lower1 = sqrt_half_pi * b * ive * e
        upper1 = ive * (math.exp(-0.5 * (b - a) ** 2) + a * sqrt_half_pi * e)
        lower2 = sqrt_half_pi * b * ive * big_e / (1.0 - math.exp(-2.0 * ab))
        upper2 = (
            ive
            / (1.0 + math.exp(-2.0 * ab))
            * (
                math.exp(-0.5 * (b - a) ** 2)
                + math.exp(-0.5 * (b + a) ** 2)
                + a * sqrt_half_pi * big_e
            )
        )
        assert lower1 <= lower2 <= q <= upper2 <= upper1
