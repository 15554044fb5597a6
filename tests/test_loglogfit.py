import math

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

    def test_denominator_bound(self):
        d = FrequencyDistribution.from_counts({1: 5})
        assert to_percent_series(d, 2**62).denominator == 2**62
        with pytest.raises(InputError, match=r"^denominator must be positive, got 0$"):
            to_percent_series(d, 0)
        for big in (2**62 + 1, 10**400):
            with pytest.raises(InputError, match=rf"^denominator must be <= 2\^62, got {big}$"):
                to_percent_series(d, big)
        with pytest.raises(InputError, match=r"2\^62"):
            fit_historical(FrequencyDistribution.from_counts({1: 5, 2: 3, 3: 1}), 3, 10**400)


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
