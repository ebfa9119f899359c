import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dqpskber import approx, bounds

import oracles
from reference_tables import TABLE2, TABLE3

# frozen 30-digit oracle values
OMEGA5_AT_1 = 0.66169236391859144
OMEGA6_AT_1 = 0.6789394879706495
OMEGA6_AT_5 = 0.53448357100324399
OMEGA7_AT_1 = 0.0049687823599807498
OMEGA7_AT_10 = 0.51923076923076923
OMEGA7_AT_8 = 0.52403846153846154
RATIO_SUM = 2.1973682269356199  # sqrt(a/b) + sqrt(b/a), SNR-independent
BER4_G1 = 0.15389969148110163
BER5_G1 = 0.1630357657160369
BER6_G1 = 0.16383349156284728
BER7_G1 = 0.16454138295869822
EPS5_G1 = -0.0053186371695227529
EPS6_G1 = -0.00045171101386883791
EPS7_G1 = 0.0038671350704153584
BER4_G12 = 9.7330113311512785e-5
README = Path(__file__).resolve().parent.parent / "README.md"


def _snr(g: float) -> bounds.SnrPoint:
    return bounds.SnrPoint.from_linear(g)


class TestWeightedMean:
    def test_midpoint(self):
        assert approx.weighted_mean(3.0, 5.0, 0.5) == 4.0

    def test_degenerate_weight(self):
        assert approx.weighted_mean(1.7, 9.9, 1.0) == 1.7
        assert approx.weighted_mean(1.7, 9.9, 0.0) == 9.9

    def test_containment(self):
        for w in np.linspace(0.0, 1.0, 11):
            v = approx.weighted_mean(2.0, -3.0, w)
            assert -3.0 <= v <= 2.0


class TestWeightFunctions:
    def test_omega5_low_branch(self):
        assert approx.omega5(1e-4) == pytest.approx(0.065, rel=1e-14)

    def test_omega5_at_breakpoint(self):
        assert approx.omega5(1.0) == pytest.approx(OMEGA5_AT_1, rel=1e-13)
        assert approx.omega5(0.9999999) == pytest.approx(0.65 * 0.9999999**0.25, rel=1e-13)

    def test_omega5_high_snr_limit(self):
        v = approx.omega5(1e4)
        assert 0.5 < v < 0.500001

    def test_omega6_branches(self):
        assert approx.omega6(0.0) == 0.75
        assert approx.omega6(1.0) == pytest.approx(OMEGA6_AT_1, rel=1e-13)
        assert approx.omega6(5.0) == pytest.approx(OMEGA6_AT_5, rel=1e-13)

    def test_omega6_range(self):
        for g in np.linspace(0.0, 100.0, 300):
            assert 0.5 < approx.omega6(g) <= 0.75

    def test_omega7_branches(self):
        assert approx.omega7(0.0) == 0.95
        assert approx.omega7(1.0) == pytest.approx(OMEGA7_AT_1, rel=1e-12)
        assert approx.omega7(10.0) == pytest.approx(OMEGA7_AT_10, rel=1e-14)

    def test_omega7_branch_boundary_at_eight(self):
        # regression pin: the high-SNR branch applies AT 8 (the tabulated
        # reference values are reproducible only under this reading)
        assert approx.omega7(8.0) == pytest.approx(OMEGA7_AT_8, rel=1e-14)
        assert approx.omega7(7.999999) == pytest.approx(
            0.5 - 1.4 * math.exp(-(7.999999**1.2)) + 0.02, rel=1e-12
        )

    def test_weights_in_unit_interval_on_grid(self):
        gs = np.linspace(1e-3, 100.0, 1000)
        for g in gs:
            assert 0.0 <= approx.omega5(g) <= 1.0
            assert 0.0 <= approx.omega6(g) <= 1.0
            assert 0.0 <= approx.omega7(g) <= 1.0

    def test_where_matches_piecewise_reference(self):
        # the np.where weights against their earlier np.piecewise form, bit
        # for bit: 0, each breakpoint with its neighbours, 1e-300..1e300
        edges = np.array([1.0, 5.0, 8.0])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        grid = np.concatenate([[0.0], near, np.linspace(0.0, 20.0, 4001), np.logspace(-300, 300, 6001)])
        for omega, ref, g in (
            (approx.omega5, oracles.ref_omega5, grid[grid > 0.0]),
            (approx.omega6, oracles.ref_omega6, grid),
            (approx.omega7, oracles.ref_omega7, grid),
        ):
            with np.errstate(all="ignore"):
                want = ref(g)
            got = omega(g)
            assert got.dtype == np.float64 and got.shape == g.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), omega.__name__
            # scalars too: numpy-scalar arithmetic differs in the last bit
            # at points like these two for omega6
            for x in np.concatenate([near, g[g <= 20.0], [1.9505819232575616, 2.6652270073781614]]).tolist():
                assert omega(x) == float(ref(x)), (omega.__name__, x)

    def test_scalar_extremes_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for omega, xs in ((approx.omega5, (1e-300, 1e300)), (approx.omega6, (0.0, 1e300)), (approx.omega7, (0.0, 1e300))):
                for x in xs:
                    assert 0.0 <= omega(x) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            approx.omega5(0.0)
        with pytest.raises(ValueError):
            approx.omega6(-0.1)
        with pytest.raises(ValueError):
            approx.omega7(-1e-9)
        with pytest.raises(ValueError):
            approx.omega5(float("nan"))
        # an array reports its lowest offending element, as evaluate does
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            approx.omega6(np.array([-1.0, np.nan]))
        with pytest.raises(ValueError, match="gamma must not be NaN"):
            approx.omega6(np.array([np.nan, -1.0]))
        with pytest.raises(ValueError, match="gamma must be positive"):
            approx.omega5(np.array([[1.0, 2.0], [0.0, 3.0]]))


class TestFixedWeightApproximations:
    def test_ber1_reference_rows(self):
        assert approx.ber1(_snr(1.0)) == pytest.approx(1.739e-1, rel=5e-3)
        assert approx.ber1(_snr(3.0)) == pytest.approx(3.458e-2, rel=5e-3)
        # corrected-magnitude row (source prints a wrong exponent there)
        assert approx.ber1(_snr(2.0)) == pytest.approx(7.324e-2, rel=5e-3)

    def test_ber2_reference_rows(self):
        assert approx.ber2(_snr(1.0)) == pytest.approx(1.731e-1, rel=5e-3)
        assert approx.ber2(_snr(9.0)) == pytest.approx(6.46883e-4, rel=5e-3)

    def test_ber3_reference_rows(self):
        assert approx.ber3(_snr(1.0)) == pytest.approx(1.556e-1, rel=5e-3)

    def test_closed_forms_match_weighted_means(self):
        for g in np.logspace(-4, 1.4, 60):
            snr = _snr(g)
            bs = bounds.bound_set(snr)
            assert approx.ber1(snr) == pytest.approx(
                approx.weighted_mean(bs.l1, bs.u1, 0.5), rel=1e-12
            )
            assert approx.ber2(snr) == pytest.approx(
                approx.weighted_mean(bs.l2, bs.u2, 0.5), rel=1e-12
            )
            assert approx.ber3(snr) == pytest.approx(
                approx.weighted_mean(bs.l2, bs.u3, 0.5), rel=1e-12
            )


class TestBer4:
    def test_frozen_values(self):
        assert approx.ber4(_snr(1.0)) == pytest.approx(BER4_G1, rel=1e-12)
        assert approx.ber4(_snr(12.0)) == pytest.approx(BER4_G12, rel=1e-12)

    def test_ratio_sum_is_snr_independent(self):
        for g in (1e-3, 1.0, 42.0, 1e4):
            p = bounds.channel_params(_snr(g))
            total = math.sqrt(p.a / p.b) + math.sqrt(p.b / p.a)
            assert total == pytest.approx(RATIO_SUM, rel=1e-12)

    def test_rejects_vanishing_snr(self):
        with pytest.raises(ValueError):
            approx.ber4(_snr(1e-13))


class TestVariableWeightApproximations:
    def test_frozen_values_at_unit_snr(self):
        assert approx.ber5(_snr(1.0)) == pytest.approx(BER5_G1, rel=1e-12)
        assert approx.ber6(_snr(1.0)) == pytest.approx(BER6_G1, rel=1e-12)
        assert approx.ber7(_snr(1.0)) == pytest.approx(BER7_G1, rel=1e-12)

    def test_reference_rows(self):
        assert approx.ber5(_snr(5.0)) == pytest.approx(8.6500e-3, rel=5e-3)
        assert approx.ber6(_snr(1.0)) == pytest.approx(1.6383e-1, rel=5e-3)
        assert approx.ber7(_snr(12.0)) == pytest.approx(9.7989e-5, rel=5e-3)

    def test_weight_argument_is_linear_snr(self):
        # regression pin of the argument convention: at 10 dB the weight must
        # be evaluated at 10.0 (linear), not 10 log10(10) = 10 dB = 10.0 --
        # use 3 dB where the two readings differ
        snr = bounds.SnrPoint.from_db(3.0)
        bs = bounds.bound_set(snr)
        expected = approx.weighted_mean(bs.l2, bs.u2, approx.omega6(snr.gamma_lin))
        assert approx.ber6(snr) == expected
        wrong = approx.weighted_mean(bs.l2, bs.u2, approx.omega6(snr.gamma_db))
        assert abs(approx.ber6(snr) - wrong) > 0.0


class TestRelativeError:
    # eps5..eps7 = (ber<k> - exact) / exact, entries of the formula table
    def test_zero_at_equality(self):
        table = dict(approx._FORMULAS, ber5=lambda r: r["exact"])
        assert bounds._evaluate(np.array([0.123]), ["eps5"], table)["eps5"][0] == 0.0

    def test_frozen_values_at_unit_snr(self):
        aset = approx.approx_set(_snr(1.0))
        assert aset.eps5 == pytest.approx(EPS5_G1, rel=1e-9)
        assert aset.eps6 == pytest.approx(EPS6_G1, rel=1e-9)
        assert aset.eps7 == pytest.approx(EPS7_G1, rel=1e-9)

    def test_reference_rows(self):
        eps6 = approx.approx_set(_snr(1.0)).eps6
        assert eps6 == pytest.approx(-4.51e-4, abs=2e-6)

    def test_rejects_nonpositive_exact(self):
        # the exact BER underflows to 0 above about 31 dB
        for db in (35.0, 40.0):
            with pytest.raises(ValueError, match="exact must be positive"):
                approx.approx_set(bounds.SnrPoint.from_db(db))


class TestAccuracyTable:
    def test_readme_cells_are_the_measured_worst_errors(self):
        # each cell of the README's accuracy table is its band's largest
        # |x - exact|/exact over 2001 dB points, rounded to two significant
        # digits; the exact BER is held to 1e-13 of the oracle up to 30.5 dB
        text = README.read_text().split("\n## Accuracy\n", 1)[1].split("\n## ", 1)[0]
        (_, *approximations, _), *rows = [
            [cell.strip() for cell in line.strip("|").split("|")] for line in text.splitlines() if line.startswith("| ")
        ]
        assert approximations == [f"ber{k}" for k in range(1, 8)] and len(rows) == 4
        bounds_ = ["l1", "l2", "u1", "u2", "u3"]
        for band, *cells in rows:
            lo, hi = map(float, band.split(" to "))
            values = approx.evaluate(10.0 ** (np.linspace(lo, hi, 2001) / 10), ["exact", *approximations, *bounds_])
            error = {c: np.max(np.abs(values[c] - values["exact"]) / values["exact"]) for c in values}
            error["worst"] = max(error[b] for b in bounds_)
            worst, name = cells.pop().split()
            for column, cell in zip([*approximations, name.strip("()"), "worst"], [*cells, worst, worst]):
                assert float(f"{error[column]:.1e}") == float(cell), (band, column, error[column])


class TestApproxSet:
    def test_consistent_with_individual_operations(self):
        snr = _snr(5.0)
        aset = approx.approx_set(snr)
        assert aset.ber1 == approx.ber1(snr)
        assert aset.ber4 == approx.ber4(snr)
        assert aset.ber5 == approx.ber5(snr)
        exact = bounds.exact_ber(snr)
        assert aset.eps7 == (aset.ber7 - exact) / exact

    def test_row_five_against_reference(self):
        aset = approx.approx_set(_snr(5.0))
        refs2 = TABLE2[5]
        assert aset.ber5 == pytest.approx(refs2[1], rel=5e-3)
        assert aset.ber6 == pytest.approx(refs2[2], rel=5e-3)
        assert aset.ber7 == pytest.approx(refs2[3], rel=5e-3)
        refs3 = TABLE3[5]
        assert aset.eps5 == pytest.approx(refs3[0], abs=2e-6)
        assert aset.eps6 == pytest.approx(refs3[1], abs=2e-6)

    def test_weighted_members_inside_their_bounds(self):
        for g in np.logspace(-3, 1.4, 40):
            snr = _snr(g)
            bs = bounds.bound_set(snr)
            aset = approx.approx_set(snr)
            assert bs.l1 <= aset.ber5 <= bs.u1
            assert bs.l2 <= aset.ber6 <= bs.u2
            assert bs.l2 <= aset.ber7 <= bs.u3

    def test_all_seven_inside_widest_bounds_at_unit_snr(self):
        # convex combinations stay in [l1, u1]; ber4 is not a mean and is
        # excluded from this check
        snr = _snr(1.0)
        bs = bounds.bound_set(snr)
        aset = approx.approx_set(snr)
        for v in (aset.ber1, aset.ber2, aset.ber3, aset.ber5, aset.ber6, aset.ber7):
            assert bs.l1 <= v <= bs.u1

    def test_finite_and_positive_at_thirty_db(self):
        aset = approx.approx_set(bounds.SnrPoint.from_db(30.0))
        for name in ("ber1", "ber2", "ber3", "ber4", "ber5", "ber6", "ber7"):
            v = getattr(aset, name)
            assert math.isfinite(v)
            assert v > 0.0

    def test_approximations_finite_far_beyond_double_range(self):
        # eps5..eps7 need exact > 0, which underflows above ~31 dB, so the
        # seven approximations are checked one by one
        for db in (200.0, 300.0):
            snr = bounds.SnrPoint.from_db(db)
            for ber in (approx.ber1, approx.ber2, approx.ber3, approx.ber4, approx.ber5, approx.ber6, approx.ber7):
                v = ber(snr)
                assert math.isfinite(v) and v >= 0.0, (db, ber.__name__)

    def test_variable_weights_beat_fixed_midpoint_on_reference_rows(self):
        # |eps6| and |eps7| below |eps1| at every tabulated row
        for g in range(1, 13):
            snr = _snr(float(g))
            exact = bounds.exact_ber(snr)
            eps1 = abs(approx.ber1(snr) - exact) / exact
            aset = approx.approx_set(snr)
            assert abs(aset.eps6) <= eps1
            assert abs(aset.eps7) <= eps1

    def test_tail_decay_monotone(self):
        # every approximation decreasing for snr >= 3
        gs = np.linspace(3.0, 100.0, 200)
        prev = None
        for g in gs:
            aset = approx.approx_set(_snr(g))
            vals = [aset.ber1, aset.ber2, aset.ber3, aset.ber4, aset.ber5, aset.ber6, aset.ber7]
            if prev is not None:
                assert all(v < p for v, p in zip(vals, prev)), g
            prev = vals


class TestLowSnrBoundaries:
    """The low-SNR limits the README states, pinned where today's formulas
    put them on dB grids (each point converted as the CLI does). Columns
    that divide by 1 - e^{-2ab} or 1 - e^{-4ab} cancel as ab -> 0; a
    cancellation-free form moves these boundaries on purpose, and this test
    with them."""

    @staticmethod
    def _linear(db: np.ndarray) -> np.ndarray:
        return np.array([bounds.db_to_linear(x) for x in db])

    def test_cancelling_columns_turn_inf_then_negative(self):
        db = np.arange(-170000, -159999) / 1000
        values = approx.evaluate(self._linear(db), ["l2", "ber2", "ber3", "ber6", "ber7"])
        negative = {"l2": (-167.973, -167.072), "ber7": (-167.973, -167.307)}
        for name, v in values.items():
            assert np.array_equal(np.isinf(v), db <= -167.974), name
            assert not np.isnan(v).any(), name
            lo, hi = negative.get(name, (0.0, -1.0))  # an empty range: never negative
            assert np.array_equal(v < 0.0, (db >= lo) & (db <= hi)), name

    def test_l1_negative_below_eleven_point_four_db(self):
        db = np.arange(-11500, -11299) / 1000
        l1 = approx.evaluate(self._linear(db), ["l1"])["l1"]
        assert np.array_equal(l1 < 0.0, db <= -11.428)

    def test_other_columns_finite_and_nonnegative_to_minus_300_db(self):
        db = np.arange(-3000, -99) / 10
        g = self._linear(db)
        values = approx.evaluate(g, ["exact", "u1", "u2", "u3", "ber1", "ber5", "w5", "w6", "w7"])
        values["ber4"] = approx.evaluate(g[db >= -120.0], ["ber4"])["ber4"]  # its 1e-12 floor
        for name, v in values.items():
            assert np.isfinite(v).all() and (v >= 0.0).all(), name

    def test_cancelling_columns_turn_nan_below_minus_302_db(self):
        # once 2ab is below half an ulp of 1, 1 - e^{-2ab} rounds to 0 and
        # E(a,b) to 0 or a rounding error, so a cell is 0/0 or x/0; 0.001 dB
        # steps over -320..-300 dB, 0.01 dB steps below, down to the smallest
        # positive double at -3233.06 dB
        db = np.concatenate([np.arange(-3233060, -320000, 10), np.arange(-320000, -299999)]) / 1000
        values = approx.evaluate(self._linear(db), ["l2", "ber2", "ber3", "ber6", "ber7"])
        above, mixed, below = db >= -302.841, (db >= -312.383) & (db <= -302.842), db < -312.383
        for name, v in values.items():
            inf, nan = np.isinf(v), np.isnan(v)
            assert inf[above].all(), name
            assert (inf | nan)[mixed].all() and inf[mixed].any() and nan[mixed].any(), name
            assert nan[below].all(), name

    def test_other_columns_finite_and_nonnegative_to_the_smallest_double(self):
        db = np.arange(-3233060, -9999, 10) / 1000
        g = np.append(self._linear(db), 5e-324)
        values = approx.evaluate(g, ["exact", "u1", "u2", "u3", "ber1", "ber5", "w5", "w6", "w7"])
        values["ber4"] = approx.evaluate(g[g >= 1e-12], ["ber4"])["ber4"]  # its 1e-12 floor
        for name, v in values.items():
            assert np.isfinite(v).all() and (v >= 0.0).all(), name


class TestEvaluate:
    def test_array_call_matches_scalar_functions(self):
        # 5000 SNRs span two row blocks of the trapezoid sum
        gs = np.logspace(-2.0, math.log10(12.0), 5000)
        columns = approx.evaluate(gs, approx.COLUMNS)
        for i in range(0, gs.size, 499):
            snr = _snr(gs[i])
            scalar = dict(
                vars(approx.approx_set(snr)),
                **vars(bounds.bound_set(snr)),
                exact=bounds.exact_ber(snr),
                w5=approx.omega5(gs[i]),
                w6=approx.omega6(gs[i]),
                w7=approx.omega7(gs[i]),
            )
            assert sorted(scalar) == sorted(approx.COLUMNS)
            for name, value in scalar.items():
                # eps is a difference of two BERs: its error is absolute
                tol = 1e-15 if name.startswith("eps") else 0.0
                assert columns[name][i] == pytest.approx(value, rel=1e-14, abs=tol), (name, gs[i])

    def test_columns_may_be_a_one_shot_iterable(self):
        gs, names = [1.0, 2.0], ["exact", "l1", "w5"]
        listed, once = approx.evaluate(gs, names), approx.evaluate(gs, iter(names))
        assert list(once) == names
        for name in names:
            assert np.array_equal(once[name].view(np.uint64), listed[name].view(np.uint64)), name
        with pytest.raises(ValueError, match="unknown columns \\['nope'\\]"):
            approx.evaluate(gs, iter(["exact", "nope"]))

    def test_exact_row_depends_on_its_own_snr_only(self):
        # each row sums its own nodes in a fixed order, so neither the other
        # rows, their order nor the block a row falls in changes its bits
        gs = 10.0 ** (np.linspace(-10.0, 60.0, 5001) / 10.0)
        assert gs.size > bounds._ROWS
        alone = np.array([approx.evaluate(gs[i : i + 1], ["exact"])["exact"][0] for i in range(gs.size)])
        shuffled = np.random.default_rng(18).permutation(gs.size)
        for order in (np.arange(gs.size), shuffled):
            values = approx.evaluate(gs[order], ["exact"])["exact"]
            assert values.view(np.uint64).tolist() == alone[order].view(np.uint64).tolist()
        grid = approx.evaluate(gs.reshape(3, -1), ["exact"])["exact"]  # any array shape
        assert grid.shape == (3, 1667) and grid.ravel().view(np.uint64).tolist() == alone.view(np.uint64).tolist()

    def test_eps_against_oracle_at_high_snr(self):
        # eps subtracts two BERs of size exp(-g (2 - sqrt 2)); each carries
        # ~1e-13 relative rounding at 30 dB unless both take that factor
        # from the same expression
        gs = 10.0 ** (np.arange(18.0, 30.51, 0.5) / 10.0)
        columns = approx.evaluate(gs, ["eps5", "eps6", "eps7", "w5", "w6", "w7"])
        pairs = {"5": ("l1", "u1"), "6": ("l2", "u2"), "7": ("l2", "u3")}
        for i, g in enumerate(gs):
            exact = oracles.ref_exact_ber(g)
            ref = oracles.ref_bounds(g)
            for k, (lower, upper) in pairs.items():
                w = oracles.mp.mpf(columns["w" + k][i])
                eps = (w * ref[lower] + (1 - w) * ref[upper] - exact) / exact
                assert abs(columns["eps" + k][i] - float(eps)) <= 1e-14, (k, g)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="unknown columns"):
            approx.evaluate(np.array([1.0]), ["exact", "bogus"])
        with pytest.raises(ValueError, match="gamma_lin must be positive and finite"):
            approx.evaluate(np.array([1.0, 0.0]), ["exact"])
        with pytest.raises(ValueError, match="gamma must be positive"):
            approx.evaluate(np.array([1.0, 0.0]), ["w5"])
        # the lowest offending row wins, whichever column it fails
        with pytest.raises(ValueError, match="gamma too small for ber4"):
            approx.evaluate(np.array([1e-13, -1.0]), ["ber4", "w5"])
        with pytest.raises(ValueError, match="exact must be positive"):
            approx.evaluate(np.array([5000.0, -1.0]), ["eps5"])
        # an N-d array reports the offending SNR by its flat index
        for gamma in ([[1.0, 1e308]], [[1.0], [1e308]]):
            with pytest.raises(ValueError, match=r"gamma_lin = 1e\+308 overflows b"):
                approx.evaluate(np.array(gamma), ["l1"])
        assert approx.evaluate(np.array([0.0]), ["w6", "w7"])["w6"][0] == 0.75

    @pytest.mark.parametrize("columns, means", [(["l1", "w5"], 0), (["eps6"], 1), (["ber5", "eps5", "w7"], 1),
                                                (approx.COLUMNS, 3)])
    def test_weighted_means_only_when_requested(self, monkeypatch, columns, means):
        # ber<k> is computed for ber<k> or eps<k> only, not for w<k> alone
        calls = []
        weighted_mean = approx.weighted_mean
        monkeypatch.setattr(approx, "weighted_mean", lambda *args: calls.append(args) or weighted_mean(*args))
        approx.evaluate(np.array([0.5, 2.0, 7.0]), columns)
        assert len(calls) == means

    @pytest.mark.parametrize("columns, scales, special", [(["exact"], 1, 0), (["l1"], 1, 2), (["w5", "w6", "w7"], 0, 0),
                                                          (["eps6"], 1, 3), (approx.COLUMNS, 1, 3)])
    def test_work_per_call(self, monkeypatch, columns, scales, special):
        # `_scale` runs once per call whatever the columns, and the exact BER
        # and the weights call no scipy.special function
        import scipy.special

        calls = []
        for module, name in ((bounds, "_scale"), (scipy.special, "erfcx"), (scipy.special, "i0e")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, original=original: calls.append(name) or original(*args))
        approx.evaluate(np.array([0.5, 2.0, 7.0]), columns)
        assert calls.count("_scale") == scales
        assert calls.count("erfcx") + calls.count("i0e") == special

    def test_table_has_no_dead_formulas(self):
        # every column is an entry, and every entry is needed by some column
        reached = set()
        for column in approx.COLUMNS:
            resolver = bounds._Resolver(np.array([0.5, 2.0, 7.0]), approx._FORMULAS)
            resolver[column]
            reached |= resolver.keys()
        assert set(approx.COLUMNS) <= set(approx._FORMULAS)
        assert reached - {"gamma"} == set(approx._FORMULAS)

    def test_weights_accept_arrays(self):
        gs = np.array([0.5, 1.0, 4.0, 5.0, 8.0, 20.0])
        for omega in (approx.omega5, approx.omega6, approx.omega7):
            values = omega(gs)
            assert isinstance(values, np.ndarray)
            assert values.tolist() == [omega(float(g)) for g in gs]
        # omega<k> reads the table's w<k> entry, bit for bit and in any shape
        g = np.arange(0.25, 15.25, 0.25).reshape(4, 15)  # holds each breakpoint
        for k, omega in ((5, approx.omega5), (6, approx.omega6), (7, approx.omega7)):
            values, table = omega(g), approx.evaluate(g, [f"w{k}"])[f"w{k}"]
            assert values.shape == table.shape == g.shape
            assert np.array_equal(values.view(np.uint64), table.view(np.uint64)), k
