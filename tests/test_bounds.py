import math

import numpy as np
import pytest
from scipy import special

from dqpskber import bounds

import oracles

# frozen 30-digit oracle values
RHO0 = 1.5451272579925427
LAMBDA0 = 3.0344220662661488
A_G1 = 0.76536686473017954
B_G1 = 1.8477590650225735
BER_G1 = 0.16390753039958481
L1_G1 = 0.14009815200929453
L2_G1 = 0.14714837515062523
U1_G1 = 0.20789920424809999
U2_G1 = 0.19911713426945682
U3_G1 = 0.16462823658585248
B_OVER_A = 2.414213562373095  # sqrt((2+sqrt2)/(2-sqrt2)) = 1 + sqrt2


class TestSnrPoint:
    def test_db_linear_identity(self):
        p = bounds.SnrPoint.from_db(0.0)
        assert p.gamma_lin == 1.0
        q = bounds.SnrPoint.from_linear(1.0)
        assert q.gamma_db == 0.0

    def test_roundtrip_invariant(self):
        for g in np.logspace(-6, 3, 40):
            p = bounds.SnrPoint.from_linear(g)
            assert p.gamma_lin == pytest.approx(10.0 ** (p.gamma_db / 10.0), rel=1e-14)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                bounds.SnrPoint.from_linear(bad)

    def test_constructor_rejects_nonpositive_linear(self):
        with pytest.raises(ValueError, match="gamma_lin must be positive and finite"):
            bounds.SnrPoint(gamma_db=0.0, gamma_lin=0.0)

    def test_rejects_inconsistent_pair(self):
        with pytest.raises(ValueError):
            bounds.SnrPoint(gamma_db=3.0, gamma_lin=1.0)

    def test_from_db_rejects_non_finite(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="gamma_db must be finite"):
                bounds.SnrPoint.from_db(bad)

    def test_rejects_db_beyond_double_range(self):
        with pytest.raises(ValueError, match="overflows the linear SNR"):
            bounds.SnrPoint.from_db(4000.0)


class TestChannelParams:
    def test_unit_snr_values(self):
        p = bounds.channel_params(bounds.SnrPoint.from_linear(1.0))
        assert p.a == pytest.approx(A_G1, rel=1e-14)
        assert p.b == pytest.approx(B_G1, rel=1e-14)

    def test_product_identity(self):
        # a b = gamma sqrt(2)
        for g in np.logspace(-8, 4, 40):
            p = bounds.channel_params(bounds.SnrPoint.from_linear(g))
            assert p.a * p.b == pytest.approx(g * math.sqrt(2.0), rel=1e-12)

    def test_constant_ratio(self):
        for g in np.logspace(-8, 4, 40):
            p = bounds.channel_params(bounds.SnrPoint.from_linear(g))
            assert p.b / p.a == pytest.approx(B_OVER_A, rel=1e-12)

    def test_db_equivalence(self):
        pa = bounds.channel_params(bounds.SnrPoint.from_db(0.0))
        pb = bounds.channel_params(bounds.SnrPoint.from_linear(1.0))
        assert pa == pb


class TestExactBer:
    def test_unit_snr(self):
        v = bounds.exact_ber(bounds.SnrPoint.from_linear(1.0))
        assert v == pytest.approx(BER_G1, rel=1e-10)

    def test_reference_rows(self):
        # spot rows of the reference tabulation (linear grid, printed precision)
        for g, ref in ((1, 1.639e-1), (6, 4.461e-3), (12, 9.798e-5)):
            v = bounds.exact_ber(bounds.SnrPoint.from_linear(float(g)))
            assert v == pytest.approx(ref, rel=5e-3)

    def test_against_reference_grid(self):
        for g in np.logspace(-3, 1.4, 20):
            v = bounds.exact_ber(bounds.SnrPoint.from_linear(g))
            assert oracles.rel_err(v, oracles.ref_exact_ber(g)) <= 1e-9

    def test_against_reference_db_grid_to_thirty_db(self):
        # rounding the exponent g (2 - sqrt 2) costs up to ~6e-14 at 30 dB;
        # the Marcum quadrature route it replaced reached 1.3e-13 here
        for db in np.linspace(-10.0, 30.5, 28):
            snr = bounds.SnrPoint.from_db(db)
            ref = oracles.ref_exact_ber(snr.gamma_lin)
            assert oracles.rel_err(bounds.exact_ber(snr), ref) <= 1e-13, db

    def test_zero_not_negative_beyond_double_range(self):
        assert bounds.exact_ber(bounds.SnrPoint.from_db(31.0)) > 0.0
        for db in (32.0, 40.0, 300.0):
            assert bounds.exact_ber(bounds.SnrPoint.from_db(db)) == 0.0

    def test_strictly_decreasing(self):
        gs = np.logspace(-4, 1.4, 120)
        vals = [bounds.exact_ber(bounds.SnrPoint.from_linear(g)) for g in gs]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_range(self):
        for g in (1e-6, 0.1, 1.0, 10.0, 100.0):
            v = bounds.exact_ber(bounds.SnrPoint.from_linear(g))
            assert 0.0 < v < 0.5

    def test_node_table(self):
        # row j holds the first 64 nodes of the N = 2 (32 + j) trapezoid sum,
        # built here directly; the last row is the one `_G_UNDERFLOW` takes,
        # and above it the exact BER is 0
        rows = math.ceil(8.0 * math.sqrt(bounds._G_UNDERFLOW)) + 1
        assert bounds._U.shape == bounds._W.shape == (rows, 64) == (287, 64)
        k = np.arange(64)
        for j in range(rows):
            n = 2 * (32 + j)
            used = k <= n // 2  # past N/2 the weight is 0
            u = 2.0 * np.sin(np.pi * k[used] / n) ** 2
            np.testing.assert_allclose(bounds._U[j, used], u, rtol=2e-15, atol=0.0)
            multiple = bounds._W[j] * (2 * n * (math.sqrt(2.0) - 1.0 + bounds._U[j]))
            expected = np.where((k == 0) | (k == n // 2), 1.0, np.where(k < n // 2, 2.0, 0.0))
            np.testing.assert_allclose(multiple, expected, rtol=2e-15, atol=0.0)
            if j >= 32:
                # the smallest SNR that takes row j is above ((j - 1)/8)^2,
                # and there the first node the row drops, k = 64, is negligible
                g = ((j - 1) / 8.0) ** 2
                assert math.ceil(8.0 * math.sqrt(g * (1.0 + 1e-12))) == j
                assert g * math.sqrt(2.0) * 2.0 * math.sin(math.pi * 64 / n) ** 2 >= 40.0, j


class TestSolveRho0:
    def test_residual(self):
        c = bounds.solve_rho0()
        residual = (c.rho0 + 1.0) * special.i1(c.rho0) - c.rho0 * special.i0(c.rho0)
        assert abs(residual) <= 1e-14

    def test_lambda_identity(self):
        c = bounds.solve_rho0()
        i0 = special.i0(c.rho0)
        i1 = special.i1(c.rho0)
        assert c.lambda0 == pytest.approx(math.exp(c.rho0) * (i0 / i1 - 1.0), rel=1e-12)

    def test_values_against_reference(self):
        c = bounds.solve_rho0()
        assert c.rho0 == pytest.approx(RHO0, rel=1e-13)
        assert c.lambda0 == pytest.approx(LAMBDA0, rel=1e-13)

    def test_bracket_sign_change(self):
        f = lambda x: (x + 1.0) * special.i1(x) - x * special.i0(x)
        assert f(1.0) < 0.0 < f(2.0)

    def test_returns_python_floats(self):
        # scipy.special returns numpy scalars, which would change the repr
        c = bounds.solve_rho0()
        assert type(c.rho0) is float and type(c.lambda0) is float

    def test_cached(self):
        assert bounds.solve_rho0() is bounds.solve_rho0()

    def test_order_one_relation_at_root(self):
        # I1(rho0) = rho0 I0(rho0) / (rho0 + 1)
        c = bounds.solve_rho0()
        i1 = special.i1(c.rho0)
        i0 = special.i0(c.rho0)
        assert i1 == pytest.approx(c.rho0 * i0 / (c.rho0 + 1.0), rel=1e-13)


def test_stored_constants_are_the_solver_doubles():
    # bit for bit: the last bits of u3, ber3 and ber7 depend on them
    c = bounds.solve_rho0()
    assert tuple(x.hex() for x in oracles.solve_rho0()) == (c.rho0.hex(), c.lambda0.hex())


class TestBoundValues:
    def test_frozen_values_at_unit_snr(self):
        bs = bounds.bound_set(bounds.SnrPoint.from_linear(1.0))
        assert bs.l1 == pytest.approx(L1_G1, rel=1e-12)
        assert bs.l2 == pytest.approx(L2_G1, rel=1e-12)
        assert bs.u1 == pytest.approx(U1_G1, rel=1e-12)
        assert bs.u2 == pytest.approx(U2_G1, rel=1e-12)
        assert bs.u3 == pytest.approx(U3_G1, rel=1e-12)

    def test_reference_midpoints(self):
        snr = bounds.SnrPoint.from_linear(1.0)
        bs = bounds.bound_set(snr)
        assert 0.5 * (bs.l1 + bs.u1) == pytest.approx(1.739e-1, rel=5e-3)
        assert 0.5 * (bs.l2 + bs.u2) == pytest.approx(1.731e-1, rel=5e-3)
        assert 0.5 * (bs.l2 + bs.u3) == pytest.approx(1.556e-1, rel=5e-3)

    def test_tightening_relations_at_unit_snr(self):
        bs = bounds.bound_set(bounds.SnrPoint.from_linear(1.0))
        assert bs.l2 > bs.l1
        assert bs.u2 < bs.u1
        assert bs.u3 < bs.u1

    def test_bracketing_at_various_snr(self):
        for g in (0.25, 0.5, 0.75, 1.0):
            snr = bounds.SnrPoint.from_linear(g)
            exact = bounds.exact_ber(snr)
            bs = bounds.bound_set(snr)
            assert bs.l1 < exact < bs.u1
            assert exact < bs.u3

    def test_ordering_chain_on_representable_grid(self):
        # strict chain where the gaps exceed double-precision resolution
        for g in np.logspace(-4, math.log10(12.0), 120):
            snr = bounds.SnrPoint.from_linear(g)
            exact = bounds.exact_ber(snr)
            bs = bounds.bound_set(snr)
            assert bs.l1 < bs.l2 <= exact <= min(bs.u2, bs.u3) <= bs.u1, g

    def test_no_crossings_up_to_fourteen_db(self):
        # non-strict chain over the full grid: ties happen beyond ~13 linear
        # where the l1/l2 (u1/u2) gaps drop below machine epsilon, but the
        # order must never invert
        for g in np.logspace(-4, 1.4, 120):
            snr = bounds.SnrPoint.from_linear(g)
            exact = bounds.exact_ber(snr)
            bs = bounds.bound_set(snr)
            assert bs.l1 <= bs.l2 <= exact <= min(bs.u2, bs.u3) <= bs.u1, g

    def test_degenerate_small_snr_finite_and_ordered(self):
        bs = bounds.bound_set(bounds.SnrPoint.from_linear(1e-6))
        vals = (bs.l1, bs.l2, bs.u1, bs.u2, bs.u3)
        assert all(math.isfinite(v) for v in vals)
        assert bs.l1 < bs.l2 < min(bs.u2, bs.u3)
        assert bs.l1 == pytest.approx(-0.49768518071454959, rel=1e-12)
        assert bs.u2 == pytest.approx(0.49999958578663044, rel=1e-12)

    def test_mutual_spread_at_twelve(self):
        bs = bounds.bound_set(bounds.SnrPoint.from_linear(12.0))
        vals = (bs.l1, bs.l2, bs.u1, bs.u2, bs.u3)
        spread = (max(vals) - min(vals)) / min(vals)
        assert spread == pytest.approx(0.053977153474918912, rel=1e-9)
        assert spread < 0.055

    def test_all_members_tiny_at_twenty_db(self):
        bs = bounds.bound_set(bounds.SnrPoint.from_db(20.0))
        for v in (bs.l1, bs.l2, bs.u1, bs.u2, bs.u3):
            assert 0.0 < v < 1e-8

    def test_finite_far_beyond_tabulated_range(self):
        # up to 3077.2 dB, the last tenth of a dB before b = sqrt(g (2 + sqrt 2))
        # overflows a double
        for db in (40.0, 200.0, 300.0, 3077.2):
            bs = bounds.bound_set(bounds.SnrPoint.from_db(db))
            for v in (bs.l1, bs.l2, bs.u1, bs.u2, bs.u3):
                assert math.isfinite(v), db
                assert v >= 0.0
        with pytest.raises(ValueError, match="overflows b"):
            bounds.bound_set(bounds.SnrPoint.from_db(3077.3))

    def test_independent_formula_reimplementation_at_unit_snr(self):
        # direct unscaled evaluation, small enough snr that nothing overflows
        a, b = A_G1, B_G1
        i0 = special.i0(a * b)
        e = math.erfc((b - a) / math.sqrt(2.0))
        half = 0.5 * math.exp(-0.5 * (a * a + b * b))
        direct_l1 = i0 * (math.sqrt(0.5 * math.pi) * b / math.exp(a * b) * e - half)
        assert bounds.bound_set(bounds.SnrPoint.from_linear(1.0)).l1 == pytest.approx(direct_l1, rel=1e-12)
