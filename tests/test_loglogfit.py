import math
import re

import numpy as np
import pytest

from lotkafit import (
    DegenerateFitError,
    Denominator,
    FrequencyDistribution,
    InputError,
    PercentSeries,
    fit_historical,
    ols_loglog,
    to_percent_series,
)


def closed_form_ols(x, y):
    """Independent oracle: textbook formulas for simple regression."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope = np.sum((x - x.mean()) * (y - y.mean())) / np.sum((x - x.mean()) ** 2)
    intercept = y.mean() - slope * x.mean()
    rss = np.sum((y - intercept - slope * x) ** 2)
    tss = np.sum((y - y.mean()) ** 2)
    return slope, intercept, 1.0 - rss / tss


def random_series(rng, n_points=10):
    levels = np.sort(rng.choice(np.arange(1, 500), size=n_points, replace=False))
    percents = np.exp(rng.normal(0.0, 1.5, size=n_points))
    return PercentSeries(
        points=tuple((int(l), float(p)) for l, p in zip(levels, percents)),
        denominator=100,
    )


class TestToPercentSeries:
    def test_level_one_chemists(self):
        d = FrequencyDistribution.from_counts({1: 3991})
        series = to_percent_series(d, 6891)
        assert round(series.points[0][1], 2) == 57.92

    def test_zero_levels_dropped(self):
        d = FrequencyDistribution.from_counts({1: 60, 2: 15, 4: 0})
        series = to_percent_series(d, 100)
        assert series.points == ((1, 60.0), (2, 15.0))

    @pytest.mark.parametrize("denominator", [Denominator.FULL, Denominator.TRUNCATED, 100, 6891, 2**62])
    def test_read_only_arrays(self, denominator):
        d = FrequencyDistribution.from_counts({1: 3991, 2: 1059, 3: 493, 5: 0, 9: 17, 2**40: 1})
        series = to_percent_series(d, denominator)
        assert (series.levels.dtype, series.percents.dtype) == (np.int64, np.float64)
        for array in (series.levels, series.percents):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        levels, counts = d.populated_arrays
        assert series.levels.tolist() == levels.tolist()
        assert series.percents.tobytes() == (100.0 * counts / series.denominator).tobytes()
        again = PercentSeries(points=series.points, denominator=series.denominator)
        assert again == series and hash(again) == hash(series)
        assert again != PercentSeries(points=series.points, denominator=series.denominator - 1)

    def test_truncated_self_normalizes(self):
        d = FrequencyDistribution.from_counts({1: 50, 2: 50})
        series = to_percent_series(d, Denominator.TRUNCATED)
        assert series.points == ((1, 50.0), (2, 50.0))
        assert series.denominator == 100

    def test_bad_denominator(self):
        d = FrequencyDistribution.from_counts({1: 5})
        with pytest.raises(InputError):
            to_percent_series(d, 0)
        with pytest.raises(InputError):
            to_percent_series(d, -3)
        for fraction in (100.9, "100", 1.5, math.nan, math.inf, None):
            with pytest.raises(InputError, match=rf"^denominator must be an integer, got {re.escape(repr(fraction))}$"):
                to_percent_series(d, fraction)
        with pytest.raises(InputError, match=r"^denominator must be an integer, got 6891.9$"):
            fit_historical(FrequencyDistribution.from_counts({1: 5, 2: 3, 3: 1}), 3, 6891.9)
        series = to_percent_series(d, 100.0)
        assert series.denominator == 100 and type(series.denominator) is int
        assert series.points == ((1, 5.0),)

    def test_denominator_bound(self):
        d = FrequencyDistribution.from_counts({1: 5})
        assert to_percent_series(d, 2**62).denominator == 2**62
        with pytest.raises(InputError, match=r"^denominator must be positive, got 0$"):
            to_percent_series(d, 0)
        for big in (2**62 + 1, 2**70, 10**400):
            with pytest.raises(InputError, match=rf"^denominator must be <= 2\^62, got {big}$"):
                to_percent_series(d, big)
        with pytest.raises(InputError, match=r"2\^62"):
            fit_historical(FrequencyDistribution.from_counts({1: 5, 2: 3, 3: 1}), 3, 10**400)


_NOT_POINTS = r"^points must be \(level, percent\) pairs of an int64 integer and a real number$"


class TestPercentSeries:
    @pytest.mark.parametrize(
        ("points", "denominator", "message"),
        [
            pytest.param(((1, math.nan), (2, 5.0), (4, 1.0)), 100,
                         r"^percent must be positive and finite at level 1, got nan$", id="nan-percent"),
            pytest.param(((1, 3.0), (2, math.inf), (4, 1.0)), 100,
                         r"^percent must be positive and finite at level 2, got inf$", id="inf-percent"),
            pytest.param(((1, 3.0), (1.5, 2.0), (4, 1.0)), 100, _NOT_POINTS, id="fractional-level"),
            pytest.param(((1, 3.0), (2**63, 2.0)), 100, _NOT_POINTS, id="level-beyond-int64"),
            pytest.param(((1, 3.0), (2, 2.0), (4, 1.0)), 1.5,
                         r"^denominator must be an integer, got 1.5$", id="fractional-denominator"),
            pytest.param(((1, 3.0), (2, 2.0), (4, 1.0)), 2**70,
                         rf"^denominator must be <= 2\^62, got {2**70}$", id="huge-denominator"),
            pytest.param(((1, "3"),), 100, _NOT_POINTS, id="str-percent"),
            pytest.param(((1,),), 100, _NOT_POINTS, id="one-item-point"),
        ],
    )
    def test_refuses_what_it_cannot_fit(self, points, denominator, message):
        with pytest.raises(InputError, match=message):
            PercentSeries(points=points, denominator=denominator)

    @pytest.mark.parametrize(
        ("points", "message"),
        [
            (((2, 1.0), (1, -1.0)), r"^levels must be strictly increasing \(level 1 out of order\)$"),
            (((0, 1.0), (1, -1.0)), r"^levels must be strictly increasing \(level 0 out of order\)$"),
            (((1, -1.0), (0, 1.0)), r"^percent must be positive and finite at level 1, got -1.0$"),
            (((1, 1.0), (3, math.nan), (2, 1.0)), r"^percent must be positive and finite at level 3, got nan$"),
            (((1, 1.0), (3, 0.0), (3, 1.0)), r"^percent must be positive and finite at level 3, got 0.0$"),
        ],
    )
    def test_first_fault_in_point_order(self, points, message):
        with pytest.raises(InputError, match=message):
            PercentSeries(points=points, denominator=100)

    def test_level_beside_a_float_stays_exact(self):
        # numpy would make (1.0, 2^62 + 1) float64 and round the level to 2^62.
        assert PercentSeries(((1.0, 1.0), (2**62 + 1, 1.0)), 100).levels.tolist() == [1, 2**62 + 1]

    def test_first_fault_matches_a_loop_over_the_points(self):
        def first_fault(points):
            previous = 0
            for level, percent in points:
                if level <= previous:
                    return f"levels must be strictly increasing (level {level} out of order)"
                if not 0 < percent < math.inf:
                    return f"percent must be positive and finite at level {level}, got {percent}"
                previous = level
            return None

        rng = np.random.default_rng(3)
        percents = (-1.0, 0.0, math.nan, math.inf, 0.5, 2.0, 7.0)
        for _ in range(2000):
            n = int(rng.integers(0, 6))
            points = tuple(
                (int(rng.integers(-1, 8)), percents[int(rng.integers(0, len(percents)))]) for _ in range(n)
            )
            expected = first_fault(points)
            if expected is None:
                assert PercentSeries(points=points, denominator=100).points == points
            else:
                with pytest.raises(InputError, match=rf"^{re.escape(expected)}$"):
                    PercentSeries(points=points, denominator=100)


class TestOlsLoglog:
    def test_exact_square_law(self):
        points = tuple((n, 60.7927 / n**2) for n in range(1, 11))
        fit = ols_loglog(PercentSeries(points=points, denominator=100))
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.dof == 8
        assert fit.exponent == abs(fit.slope)

    def test_hand_computed_example(self):
        points = ((1, 100.0), (2, 30.0), (4, 6.0))
        fit = ols_loglog(PercentSeries(points=points, denominator=100))
        slope, intercept, r2 = closed_form_ols(
            np.log10([1, 2, 4]), np.log10([100, 30, 6])
        )
        assert fit.slope == pytest.approx(-2.0295, abs=1e-3)
        assert fit.r_squared == pytest.approx(0.9931, abs=1e-3)
        assert fit.slope == pytest.approx(slope, abs=1e-12)
        assert fit.intercept == pytest.approx(intercept, abs=1e-12)
        assert fit.r_squared == pytest.approx(r2, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError, match="3 points"):
            ols_loglog(PercentSeries(points=((1, 10.0), (2, 5.0)), denominator=100))

    def test_flat_percents_degenerate(self):
        points = ((1, 50.0), (2, 50.0), (4, 50.0))
        with pytest.raises(DegenerateFitError, match="percents equal"):
            ols_loglog(PercentSeries(points=points, denominator=100))

    def test_matches_closed_form_on_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            series = random_series(rng)
            fit = ols_loglog(series)
            slope, intercept, r2 = closed_form_ols(
                np.log10(series.levels), np.log10(series.percents)
            )
            assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
            assert fit.r_squared == pytest.approx(r2, rel=1e-12, abs=1e-12)

    def test_f_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            fit = ols_loglog(random_series(rng))
            if math.isfinite(fit.f_stat):
                assert fit.f_stat * (1.0 - fit.r_squared) == pytest.approx(
                    fit.dof * fit.r_squared, rel=1e-9
                )

    def test_caption_arithmetic(self):
        # R^2 recovered from the printed F and dof must round to the
        # printed R^2: 0.99 for F=3676.9/dof=28 and 0.98 for F=763.8/dof=15.
        assert round(3676.9 / (3676.9 + 28), 2) == 0.99
        assert round(763.8 / (763.8 + 15), 2) == 0.98


class TestInvariances:
    def test_scale_invariance_counts_vs_percents(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n_levels = rng.integers(4, 15)
            levels = np.sort(rng.choice(np.arange(1, 300), size=n_levels, replace=False))
            counts = rng.integers(1, 5000, size=n_levels)
            d = FrequencyDistribution.from_counts(
                {int(l): int(c) for l, c in zip(levels, counts)}
            )
            as_percent = ols_loglog(to_percent_series(d, Denominator.FULL))
            as_counts = ols_loglog(to_percent_series(d, 100))  # percent == raw count
            assert as_counts.slope == pytest.approx(as_percent.slope, abs=1e-12)
            assert as_counts.r_squared == pytest.approx(as_percent.r_squared, abs=1e-12)
            if d.total_authors != 100:
                assert as_counts.intercept != pytest.approx(as_percent.intercept, abs=1e-6)

    def test_base_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            series = random_series(rng)
            fit = ols_loglog(series)
            slope_ln, _, r2_ln = closed_form_ols(
                np.log(series.levels), np.log(series.percents)
            )
            assert fit.slope == pytest.approx(slope_ln, abs=1e-12)
            assert fit.r_squared == pytest.approx(r2_ln, abs=1e-12)

    def test_ols_is_max_r_squared(self):
        # Any perturbed line has RSS >= the OLS line's RSS, so R^2 via
        # 1 - RSS/TSS is maximized exactly at the OLS solution.
        rng = np.random.default_rng(23)
        for _ in range(20):
            series = random_series(rng)
            fit = ols_loglog(series)
            x = np.log10(series.levels)
            y = np.log10(series.percents)
            rss_ols = np.sum((y - fit.intercept - fit.slope * x) ** 2)
            for _ in range(10):
                d_slope, d_int = rng.uniform(-0.5, 0.5, size=2)
                if d_slope == 0.0 and d_int == 0.0:
                    continue
                rss = np.sum((y - (fit.intercept + d_int) - (fit.slope + d_slope) * x) ** 2)
                assert rss >= rss_ols - 1e-9


class TestFitHistorical:
    @pytest.fixture
    def rounded_square_law(self):
        counts = {n: round(10000 / n**2) for n in range(1, 41)}
        return FrequencyDistribution.from_counts(counts)

    def test_recovers_exponent_with_rounding_noise(self, rounded_square_law):
        fit = fit_historical(rounded_square_law, 30, Denominator.FULL)
        assert fit.exponent == pytest.approx(2.0, abs=0.02)
        # Oracle: the same pipeline on the unrounded series.
        exact = ols_loglog(
            PercentSeries(
                points=tuple((n, 10000.0 / n**2) for n in range(1, 31)),
                denominator=rounded_square_law.total_authors,
            )
        )
        assert exact.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.slope == pytest.approx(exact.slope, abs=0.02)

    def test_cutoff_stability(self, rounded_square_law):
        fit30 = fit_historical(rounded_square_law, 30)
        fit40 = fit_historical(rounded_square_law, 40)
        assert abs(fit30.slope - fit40.slope) < 0.05

    def test_single_level_errors(self):
        d = FrequencyDistribution.from_counts({1: 100, 40: 3})
        with pytest.raises(DegenerateFitError, match="3 points"):
            fit_historical(d, 30)

    def test_denominator_resolution(self, rounded_square_law):
        full = fit_historical(rounded_square_law, 30, Denominator.FULL)
        explicit = fit_historical(rounded_square_law, 30, rounded_square_law.total_authors)
        assert full == explicit
        truncated = fit_historical(rounded_square_law, 30, Denominator.TRUNCATED)
        assert truncated.slope == pytest.approx(full.slope, abs=1e-12)
        assert truncated.intercept != pytest.approx(full.intercept, abs=1e-6)
        assert truncated.denominator < full.denominator

    def test_metadata_in_report(self, rounded_square_law):
        fit = fit_historical(rounded_square_law, 30)
        payload = fit.to_dict()
        assert set(payload) == {
            "slope",
            "intercept",
            "exponent",
            "r_squared",
            "f_stat",
            "dof",
            "n_points",
            "denominator",
            "cutoff",
        }
        assert payload["cutoff"] == 30
        assert payload["denominator"] == rounded_square_law.total_authors

    def test_exact_fit_serializes_f_stat_as_null(self):
        points = tuple((n, 60.0 / n**2) for n in range(1, 8))
        fit = ols_loglog(PercentSeries(points=points, denominator=100))
        assert math.isinf(fit.f_stat)
        assert fit.to_dict()["f_stat"] is None
