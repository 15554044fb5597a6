import hashlib
import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import per_draw_levels
from lotkafit import (
    FrequencyDistribution,
    InputError,
    MleResult,
    PercentSeries,
    PowerLawModel,
    bias_experiment,
    ccdf,
    compare_methods,
    expected_counts,
    hurwitz_zeta,
    mle_alpha,
    ols_loglog,
    predicted_fraction,
    sample,
    select_xmin,
    serialize_distribution,
)
from lotkafit import lotkamodel, modernfit
from lotkafit.freqdata import MAX_LEVEL
from lotkafit.lotkamodel import (
    _DENSE_CELLS,
    _DENSE_LOGS,
    _DENSE_WEIGHTS,
    _DRAW_BLOCK,
    _FACTORIALS,
    _GUIDE_CELLS,
    _ORDERS,
    _TAIL_START,
    _CdfTable,
    _horner,
    _series_coeffs,
    _zeta,
)


def brute_force_zeta(alpha, xmin=1, terms=10**6):
    """Independent oracle: direct partial sum bracketed by integral bounds.

    sum_{k>N} k^-a lies between the integrals from N+1 and from N, so the
    midpoint is within half the bracket width of the truth.
    """
    ks = np.arange(xmin, xmin + terms, dtype=float)
    partial = float(np.power(ks, -alpha).sum())
    n = float(xmin + terms)
    lower = (n + 1) ** (1 - alpha) / (alpha - 1)
    upper = n ** (1 - alpha) / (alpha - 1)
    return partial + 0.5 * (lower + upper), 0.5 * (upper - lower)


def _unblocked_zeta(alpha, starts, derivatives=False):
    """Reference: _zeta with its dense block computed for all rows at once, used or not."""
    orders = 3 if derivatives else 1
    a = np.asarray(alpha, dtype=float).reshape(-1, 1)
    s = np.asarray(starts, dtype=float)
    n = np.maximum(s, float(_TAIL_START))
    shift = np.log(n)
    power = np.exp(-a * shift)
    inv_am1 = 1.0 / (a - 1.0)
    lead = n * power * inv_am1
    moments = lead * (_FACTORIALS[:orders] * inv_am1 ** _ORDERS[:orders])
    moments[0] += 0.5 * power
    moments += (power / n) * _horner(_series_coeffs(a, orders), 1.0 / (n * n))
    if (s < _TAIL_START).any():
        terms = np.exp(-a * _DENSE_LOGS) * _DENSE_WEIGHTS[:orders, None, :]
        suffix = np.zeros(terms.shape[:-1] + (_TAIL_START,))
        terms.cumsum(axis=-1, out=suffix[..., 1:])
        col = _TAIL_START - np.minimum(s, _TAIL_START).astype(np.intp)
        moments += suffix[:, np.arange(a.shape[0]).reshape(-1, 1), col]
    if not derivatives:
        return moments[0]
    zeta, m1, m2 = moments
    mean = m1 / zeta
    return zeta, -(shift + mean), m2 / zeta - mean * mean


class TestHurwitzZeta:
    def test_basel_identity(self):
        assert hurwitz_zeta(2.0, 1) == pytest.approx(math.pi**2 / 6, abs=1e-12)

    def test_shift_identity(self):
        assert hurwitz_zeta(2.0, 2) == pytest.approx(math.pi**2 / 6 - 1.0, abs=1e-12)

    def test_apery_against_brute_force(self):
        oracle, width = brute_force_zeta(3.0)
        assert width < 1e-10
        assert hurwitz_zeta(3.0, 1) == pytest.approx(oracle, abs=1e-10)
        assert hurwitz_zeta(3.0, 1) == pytest.approx(1.2020569032, abs=1e-10)

    def test_against_mpmath_grid(self):
        # Both ends of ALPHA_DOMAIN, up to the largest level a distribution
        # holds; the worst case is about 1.4e-13 at alpha 1.01, xmin 2^62.
        mpmath.mp.dps = 30
        for alpha in (1.01, 1.1, 1.5, 2.0, 2.5, 3.7, 5.0, 10.0):
            for xmin in (1, 2, 3, 10, 257, 10_000, 10**9, 2**40, 2**62):
                reference = float(mpmath.zeta(alpha, xmin))
                assert hurwitz_zeta(alpha, xmin) == pytest.approx(
                    reference, abs=1e-12
                ), (alpha, xmin)

    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.0, 10.0])
    def test_evaluator_and_log_derivatives_against_mpmath(self, alpha):
        # The array evaluator gives zeta and the first two alpha-derivatives
        # of ln zeta (minus the model mean of ln k, and its variance) on
        # both sides of the dense/Euler-Maclaurin switch at 64, and around
        # level 256.
        mpmath.mp.dps = 40
        starts = [1, 63, 64, 65, 255, 256, 257, 10**4, 10**7]
        zeta, dlog, d2log = _zeta([alpha], [[float(s) for s in starts]], derivatives=True)
        for i, s in enumerate(starts):
            z = mpmath.zeta(alpha, s)
            z1 = mpmath.zeta(alpha, s, 1) / z
            z2 = mpmath.zeta(alpha, s, 2) / z - z1**2
            assert zeta[0, i] == pytest.approx(float(z), rel=1e-13), s
            assert dlog[0, i] == pytest.approx(float(z1), rel=1e-13, abs=1e-13), s
            assert d2log[0, i] == pytest.approx(float(z2), rel=1e-10), s

    def test_evaluator_rows_are_independent(self):
        # Each row's values depend only on its own exponent and start
        # points, so a fit of one candidate equals its row in a batch.
        alphas = [1.3, 2.0, 7.5]
        starts = np.array([[1.0, 40.0, 63.0, 64.0, 65.0, 255.0, 256.0, 257.0, 3e5, 2.0**62]])
        batch = _zeta(alphas, starts)
        for r, alpha in enumerate(alphas):
            assert np.array_equal(_zeta([alpha], starts)[0], batch[r])
            for i, s in enumerate(starts[0]):
                assert batch[r, i] == hurwitz_zeta(alpha, int(s))

    @pytest.mark.parametrize("derivatives", [False, True])
    @pytest.mark.parametrize("shape", ["R,1", "1,M", "R,M"])
    @pytest.mark.parametrize("rows", ["1", "block-1", "block", "block+1", "1000"])
    def test_dense_row_blocks_change_no_float(self, rows, shape, derivatives):
        # The dense block is computed for a block of exponent rows at a time
        # (128 rows, 42 with derivatives); each row's exp, weights and cumsum
        # are as in one block of all rows, so every value is the same float.
        block = _DENSE_CELLS // ((3 if derivatives else 1) * _TAIL_START)
        rows = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1, "1000": 1000}[rows]
        rng = np.random.default_rng(rows)
        alpha = rng.uniform(1.01, 10.0, rows)
        columns = 1 if shape == "R,1" else 9
        starts = rng.integers(1, 80, size=(1 if shape == "1,M" else rows, columns)).astype(float)
        if columns > 1:
            starts[:, -1] = 2.0**40
        got, want = _zeta(alpha, starts, derivatives), _unblocked_zeta(alpha, starts, derivatives)
        for g, w in zip(got, want) if derivatives else [(got, want)]:
            assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("derivatives", [False, True])
    @pytest.mark.parametrize("dense", ["0", "1", "block-1", "block", "block+1", "999", "last column"])
    def test_dense_row_selection_changes_no_float(self, dense, derivatives):
        # Only rows with a start below 64 get dense sums; the others get none
        # added, so each value is the float of a dense block over all rows.
        # (R, 1) starts with that many of 1,000 rows below 64, or (R, M)
        # starts where a row's only start below 64 is its last column.
        block = _DENSE_CELLS // ((3 if derivatives else 1) * _TAIL_START)
        if dense == "last column":
            alpha = np.array([1.5, 2.5, 9.0])
            starts = np.array([[64.0, 80.0, 2.0**40], [64.0, 2.0**40, 63.0], [100.0, 65.0, 64.0]])
        else:
            dense = {"0": 0, "1": 1, "block-1": block - 1, "block": block, "block+1": block + 1}.get(
                dense, 999
            )
            rng = np.random.default_rng(dense)
            alpha = rng.uniform(1.01, 10.0, 1000)
            starts = rng.integers(_TAIL_START, 2**40, size=(1000, 1)).astype(float)
            starts[rng.permutation(1000)[:dense]] = rng.integers(1, _TAIL_START, size=(dense, 1))
        got, want = _zeta(alpha, starts, derivatives), _unblocked_zeta(alpha, starts, derivatives)
        for g, w in zip(got, want) if derivatives else [(got, want)]:
            assert g.shape == w.shape and np.array_equal(g, w)

    def test_dense_sums_run_only_for_rows_with_a_start_below_64(self, monkeypatch):
        # For each fit call of _zeta, the rows that the dense exp runs over
        # (recorded where the exponents meet _DENSE_LOGS) are exactly its
        # rows with a start below 64: at 1e6 authors, 63 of the first Newton
        # pass's 1,344 candidate rows.
        d = sample(PowerLawModel(2.0), 10**6, 1)
        exp_rows, calls = [], []

        class RowSpy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                exp_rows.append(len(inputs[0]))
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        def spy(alpha, starts, derivatives=False):
            first = len(exp_rows)
            result = _zeta(alpha, starts, derivatives)
            below = np.broadcast_to(np.asarray(starts) < _TAIL_START, (len(alpha), np.shape(starts)[1]))
            calls.append((sum(exp_rows[first:]), int(below.any(axis=1).sum()), len(alpha)))
            return result

        monkeypatch.setattr(lotkamodel, "_DENSE_LOGS", _DENSE_LOGS.view(RowSpy))
        monkeypatch.setattr(modernfit, "_zeta", spy)
        select_xmin(d)
        assert len(calls) >= 5
        assert all(ran == below for ran, below, _ in calls)
        assert (63, 63, 1344) in calls

    def test_dense_block_temporaries_do_not_grow_with_the_rows(self):
        # A 1,000-row derivative call, every start below 64: the unblocked
        # dense block held 3 x 1,000 x 64 floats of suffix sums alone.
        alpha = np.linspace(1.01, 10.0, 1000)
        starts = np.arange(1000, dtype=float).reshape(-1, 1) % 63 + 1
        tracemalloc.start()
        try:
            _zeta(alpha, starts, derivatives=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_divergent_alpha(self):
        with pytest.raises(InputError, match=r"alpha must lie in \[1\.01, 10\], got 1\.0$"):
            hurwitz_zeta(1.0, 1)
        with pytest.raises(InputError, match=r"alpha must lie in \[1\.01, 10\], got 0\.5$"):
            hurwitz_zeta(0.5, 1)

    def test_bad_xmin(self):
        with pytest.raises(InputError):
            hurwitz_zeta(2.0, 0)


_OUTSIDE_DOMAIN = [1.0099999, 10.000001, math.nan, math.inf, -math.inf]


class TestModelValidation:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(InputError):
            PowerLawModel(1.0, 1)

    @pytest.mark.parametrize("alpha", _OUTSIDE_DOMAIN)
    def test_alpha_outside_domain_refused(self, alpha):
        message = rf"^alpha must lie in \[1\.01, 10\], got {re.escape(repr(alpha))}$"
        with pytest.raises(InputError, match=message):
            PowerLawModel(alpha, 1)
        with pytest.raises(InputError, match=message):
            hurwitz_zeta(alpha, 1)

    @pytest.mark.parametrize("xmin", [2.5, math.nan, math.inf])
    def test_xmin_must_be_an_integer(self, xmin):
        # The sum over integer k >= 2.5 is zeta(2, 3) = 0.3949; a dense sum
        # from int(2.5) = 2 would give zeta(2, 2) = 0.6449.
        message = f"^xmin must be a positive integer, got {xmin}$"
        with pytest.raises(InputError, match=message):
            PowerLawModel(2.0, xmin)
        with pytest.raises(InputError, match=message):
            hurwitz_zeta(2.0, xmin)

    def test_xmin_positive_integer(self):
        with pytest.raises(InputError):
            PowerLawModel(2.0, 0)

    def test_xmin_upper_bound_is_the_largest_level(self):
        # Above 2^62, the largest level a distribution holds, xmin is refused
        # with one line; 10**400 would otherwise overflow float(xmin).
        assert PowerLawModel(2.0, 2**62).xmin == 2**62
        assert hurwitz_zeta(2.0, 2**62) == pytest.approx(2.0**-62, rel=1e-12)
        for xmin in (2**62 + 1, 10**400):
            with pytest.raises(InputError, match=rf"^xmin must be <= 2\^62, got {xmin}$"):
                PowerLawModel(2.0, xmin)
            with pytest.raises(InputError, match=rf"^xmin must be <= 2\^62, got {xmin}$"):
                hurwitz_zeta(2.0, xmin)


class TestPredictedFraction:
    def test_inverse_square_level_one(self):
        model = PowerLawModel(2.0, 1)
        assert predicted_fraction(1, model) == pytest.approx(0.607927, abs=1e-6)
        assert predicted_fraction(1, model) == pytest.approx(6 / math.pi**2, abs=1e-12)

    def test_inverse_square_ratio(self):
        model = PowerLawModel(2.0, 1)
        ratio = predicted_fraction(4, model) / predicted_fraction(1, model)
        assert ratio == pytest.approx(1 / 16, abs=1e-12)

    def test_level_two(self):
        model = PowerLawModel(2.0, 1)
        assert predicted_fraction(2, model) == pytest.approx(0.151982, abs=1e-6)

    def test_below_xmin(self):
        with pytest.raises(InputError):
            predicted_fraction(1, PowerLawModel(2.0, 2))

    def test_strictly_decreasing(self):
        model = PowerLawModel(1.7, 1)
        fractions = [predicted_fraction(k, model) for k in range(1, 200)]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))


class TestExpectedCounts:
    def test_thousand_author_predictions(self):
        values = dict(expected_counts(1000, PowerLawModel(2.0, 1), 4))
        assert values[1] == pytest.approx(607.93, abs=0.005)
        assert values[2] == pytest.approx(151.98, abs=0.005)
        assert values[3] == pytest.approx(67.55, abs=0.005)
        assert values[4] == pytest.approx(38.00, abs=0.005)

    def test_single_author_scaling(self):
        values = dict(expected_counts(1, PowerLawModel(2.0, 1), 1))
        assert values[1] == pytest.approx(0.607927, abs=1e-6)

    def test_partial_sums_approach_total(self):
        values = expected_counts(1000, PowerLawModel(2.0, 1), 10**6)
        total = sum(v for _, v in values)
        assert total <= 1000.0
        assert total > 999.99


class TestCcdf:
    def test_full_support_at_xmin(self):
        assert ccdf(1, PowerLawModel(2.0, 1)) == pytest.approx(1.0, abs=1e-12)
        assert ccdf(3, PowerLawModel(2.0, 3)) == pytest.approx(1.0, abs=1e-12)

    def test_complement_of_level_one(self):
        assert ccdf(2, PowerLawModel(2.0, 1)) == pytest.approx(0.392073, abs=1e-6)

    def test_telescoping(self):
        model = PowerLawModel(2.0, 1)
        for k in range(1, 101):
            gap = ccdf(k, model) - ccdf(k + 1, model)
            assert gap == pytest.approx(predicted_fraction(k, model), abs=1e-12)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_normalization(self, alpha):
        model = PowerLawModel(alpha, 1)
        for top in (10, 100, 1000):
            partial = sum(predicted_fraction(k, model) for k in range(1, top + 1))
            assert partial + ccdf(top + 1, model) == pytest.approx(1.0, abs=1e-10)

    def test_strictly_decreasing(self):
        model = PowerLawModel(2.0, 1)
        values = [ccdf(k, model) for k in range(1, 100)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBridgeToHistoricalFit:
    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.1])
    def test_ols_recovers_exponent_from_exact_percentages(self, alpha):
        model = PowerLawModel(alpha, 1)
        points = tuple(
            (k, 100.0 * predicted_fraction(k, model)) for k in range(1, 31)
        )
        fit = ols_loglog(PercentSeries(points=points, denominator=100))
        assert fit.slope == pytest.approx(-alpha, abs=1e-9)


class TestSample:
    def test_determinism(self):
        model = PowerLawModel(2.0, 1)
        assert sample(model, 5000, 42) == sample(model, 5000, 42)

    def test_single_draw(self):
        d = sample(PowerLawModel(2.0, 1), 1, 7)
        assert d.total_authors == 1

    def test_level_one_fraction(self):
        d = sample(PowerLawModel(2.0, 1), 100_000, 42)
        assert d.total_authors == 100_000
        fraction = d.authors_at(1) / d.total_authors
        assert abs(fraction - 0.6079) < 0.01

    def test_respects_xmin(self):
        d = sample(PowerLawModel(2.0, 6), 2000, 3)
        assert min(level for level, _ in d.entries) >= 6

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            sample(PowerLawModel(2.0, 1), 0, 1)
        with pytest.raises(InputError):
            sample(PowerLawModel(2.0, 1), 10, -1)

    def test_count_beyond_two_to_the_62_refused(self):
        # Refused before anything is allocated.
        for count in (2**62 + 1, 10**23):
            with pytest.raises(InputError, match=rf"count must lie in \[1, 2\^62\], got {count}$"):
                sample(PowerLawModel(2.0, 1), count, 1)

    def test_seed_one_outputs_are_pinned(self):
        # sha256 of seed-1 outputs that draw beyond the sampler table: 1e6
        # draws at alpha 1.5 (about 3,000 beyond it), and a bias experiment.
        drawn = serialize_distribution(sample(PowerLawModel(1.5), 10**6, 1))
        assert hashlib.sha256(drawn.encode()).hexdigest() == (
            "7a669419f18200ff9b3079779b579b49c1cebe7c741e96ed8c05047a5b7aa306"
        )
        bias = json.dumps(bias_experiment(2.0, 6891, [30, 10**6], 20, 1).to_dict())
        assert hashlib.sha256(bias.encode()).hexdigest() == (
            "f0ed9f19f679e8cacbee21ede5f336689648d2aea18aa75397127721498b0038"
        )

    def test_seed_one_fits_at_a_million_authors_are_pinned(self):
        # Exact floats of the fits whose zeta rows mostly start at 64 or
        # above; at xmin 70 no row has a dense sum.
        d = sample(PowerLawModel(2.0), 10**6, 1)
        modern = MleResult(1.9999800707459034, 1, 0.00031957437577900816, 10**6, -1637657.5433851453)
        assert select_xmin(d) == modern
        assert mle_alpha(d, 70) == MleResult(
            2.02370485149949, 70, 0.010971329755193271, 8826, -54675.10956323717
        )
        assert compare_methods(d, 30).to_dict() == {
            "cutoff_used": 30,
            "divergence": 0.008405936507758893,
            "historical": {
                "slope": -2.0083860072536623,
                "intercept": 1.789755428880155,
                "exponent": 2.0083860072536623,
                "r_squared": 0.9998396077793594,
                "f_stat": 174544.0577230883,
                "dof": 28,
                "n_points": 30,
                "denominator": 1000000,
                "cutoff": 30,
            },
            "modern": modern.to_dict(),
            "notes": "right truncation at 30 removes 100.00% of the level range and 82.03% of works;"
            " author denominator kept at the full total 1000000",
        }

    def test_chi_square_goodness_across_seeds(self):
        # Chi-square of each 1e5-draw sample against the pmf on levels
        # 1..20 with the tail pooled; the 0.999 quantile of chi2(20) must
        # cover at least 95 of seeds 1..100.
        model = PowerLawModel(2.0, 1)
        expected = np.array(
            [100_000 * predicted_fraction(k, model) for k in range(1, 21)]
            + [100_000 * ccdf(21, model)]
        )
        threshold = stats.chi2.ppf(0.999, df=20)
        passes = 0
        for seed in range(1, 101):
            d = sample(model, 100_000, seed)
            observed = np.array(
                [d.authors_at(k) for k in range(1, 21)]
                + [sum(a for level, a in d.entries if level > 20)]
            )
            statistic = float(((observed - expected) ** 2 / expected).sum())
            passes += statistic < threshold
        assert passes >= 95


def _doubling_search(table: _CdfTable, u: np.ndarray) -> np.ndarray:
    """Reference: levels of draws beyond the table by doubling from its last level, then bisection."""
    target = (1.0 - u) * table.model.normalizer

    def above(k: np.ndarray, where: np.ndarray) -> np.ndarray:
        return _zeta([table.model.alpha], (k[where] + 1.0).reshape(1, -1))[0] > target[where]

    lo = np.full(u.shape, table.last_level, dtype=np.int64)
    hi = lo.copy()
    grow = np.ones(u.shape, dtype=bool)
    while True:
        grow[grow] = above(hi, grow)
        if not grow.any():
            break
        assert (hi[grow] <= MAX_LEVEL // 2).all()
        hi[grow] *= 2
    while True:
        active = hi - lo > 1
        if not active.any():
            return hi
        mid = (lo + hi) // 2
        beyond = np.zeros(u.shape, dtype=bool)
        beyond[active] = above(mid, active)
        hi = np.where(active & ~beyond, mid, hi)
        lo = np.where(beyond, mid, lo)


class _FixedUniforms:
    """Stands in for a generator whose uniform stream is a given array.

    Each ``random`` call serves the next uniforms, into ``out`` or as a
    new array, and records how many it served in ``fills``.
    """

    def __init__(self, u: np.ndarray) -> None:
        self.u = u
        self.fills: list[int] = []

    def random(self, size: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
        count = len(out) if out is not None else size
        start = sum(self.fills)
        assert start + count <= len(self.u)
        self.fills.append(count)
        if out is None:
            return self.u[start : start + count].copy()
        out[...] = self.u[start : start + count]
        return out


_TABLES: dict[tuple[float, int, bool], _CdfTable] = {}
# A bootstrap's body: 50 of 100 observed authors at levels 1, 3 and 6.
_BODY = (np.array([1, 3, 6]), np.array([40, 1, 9]), 100)


def _table(alpha: float, xmin: int, body: bool = False) -> _CdfTable:
    """The model's table; with ``body``, the bootstrap table of _BODY below xmin (at least 7)."""
    if (alpha, xmin, body) not in _TABLES:
        _TABLES[alpha, xmin, body] = _CdfTable(PowerLawModel(alpha, xmin), _BODY if body else None)
    return _TABLES[alpha, xmin, body]


def _tally_of(table: _CdfTable, u: np.ndarray) -> tuple[list[int], list[int]]:
    """table.tally over exactly the uniforms u, which it must all consume."""
    uniforms = _FixedUniforms(u)
    levels, counts = table.tally(uniforms, len(u))
    assert sum(uniforms.fills) == len(u)
    assert levels.dtype == counts.dtype == np.int64
    return levels.tolist(), counts.tolist()


def _unique(levels: np.ndarray) -> tuple[list[int], list[int]]:
    values, counts = np.unique(levels, return_counts=True)
    return values.tolist(), counts.tolist()


class TestCdfTable:
    @given(
        st.sampled_from([1.3, 1.5, 2.0, 2.5, 3.0, 4.5, 6.0]),
        st.sampled_from([1, 2, 7, 40]),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_guide_table_draws_equal_plain_search(self, alpha, xmin, body, data):
        # Uniforms at the exact cell edges c / G, one ulp below them, at
        # table entries, and beyond the table's last entry: the guide table
        # must give the row a plain binary search gives, draw by draw, with
        # or without a bootstrap body before the model's rows.
        table = _table(alpha, xmin, body and xmin >= 7)
        cells = st.integers(0, _GUIDE_CELLS - 1)
        rows = st.integers(0, len(table.cdf) - 1)
        below = np.nextafter
        points = st.one_of(
            cells.map(lambda c: c / _GUIDE_CELLS),
            cells.map(lambda c: below((c + 1) / _GUIDE_CELLS, 0.0)),
            rows.map(lambda i: table.cdf[i]),
            rows.map(lambda i: below(table.cdf[i], 0.0)),
        )
        beyond = st.floats(float(table.cdf[-1]), 1.0, exclude_min=True, exclude_max=True)
        u = np.array(
            data.draw(st.lists(points, min_size=1, max_size=60))
            + data.draw(st.lists(beyond, max_size=3)),
            dtype=float,
        )
        try:
            plain = per_draw_levels(table, u)
        except InputError:
            # Near 1 at a small alpha the quantile lies beyond 2^62.
            with pytest.raises(InputError, match="beyond 2\\^62"):
                table.tally(_FixedUniforms(u), len(u))
            return
        for one, level in zip(u, plain.tolist()):
            assert _tally_of(table, one[None]) == ([level], [1])
        assert _tally_of(table, u) == _unique(plain)

    @pytest.mark.parametrize("block", [5, _DRAW_BLOCK])
    @given(
        alpha=st.sampled_from([1.5, 2.0, 3.0, 6.0]),
        xmin=st.sampled_from([1, 7]),
        extra=st.sampled_from([-1, 0, 1, "3b+7"]),
        seed=st.integers(0, 2**32 - 1),
        body=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_tally_equals_per_draw_levels(self, block, alpha, xmin, extra, seed, body, data):
        # Counts on both sides of a block edge and across several blocks,
        # with draws beyond the table placed in any of them: the tally is
        # np.unique of the per-draw levels, body levels included, and one
        # _beyond_table call resolves every draw beyond the table.
        count = 3 * block + 7 if extra == "3b+7" else block + extra
        table = _table(alpha, xmin, body and xmin == 7)
        u = np.random.default_rng(seed).random(count)
        far = data.draw(st.lists(st.tuples(st.integers(0, count - 1), st.floats(0.0, 0.999)), max_size=6))
        for i, fraction in far:  # below 1.0 like every uniform: at alpha 6 the table ends 73 ulps short of it
            u[i] = min(table.cdf[-1] + fraction * (1.0 - table.cdf[-1]), np.nextafter(1.0, 0.0))
        expected = _unique(per_draw_levels(table, u))
        calls = []
        real_beyond = _CdfTable._beyond_table

        def spy(self, uniforms):
            calls.append(len(uniforms))
            return real_beyond(self, uniforms)

        uniforms = _FixedUniforms(u)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lotkamodel, "_DRAW_BLOCK", block)
            patch.setattr(_CdfTable, "_beyond_table", spy)
            levels, counts = table.tally(uniforms, count)
        assert (levels.tolist(), counts.tolist()) == expected
        overflow = int((u > table.cdf[-1]).sum())
        assert calls == ([overflow] if overflow else [])
        full, rest = divmod(count, block)
        assert uniforms.fills == [block] * full + [rest] * (rest > 0)

    def test_body_rows_precede_the_scaled_model_rows(self):
        # The bootstrap's table: body level k holds count / n, and the
        # model's rows follow at the tail share 50 / 100. Without a body the
        # share is 1.0 and the body mass 0.0, so the rows are the model's
        # cumulative probabilities themselves, float for float.
        model, plain, mixed = PowerLawModel(2.0, 7), _table(2.0, 7), _table(2.0, 7, True)
        assert mixed.cdf[:3].tolist() == [0.4, 0.41, 0.5]
        assert mixed.cdf[3:].tobytes() == (plain.cdf * 0.5 + 0.5).tobytes()
        assert mixed.last_level == plain.last_level
        levels = np.arange(7, plain.last_level + 1, dtype=float)
        assert plain.cdf.tobytes() == (np.cumsum(np.power(levels, -2.0)) / model.normalizer).tobytes()

    def test_mixed_table_maps_rows_back_to_levels(self):
        # Draws midway up each body level's step, the first model rows' and
        # those of three levels beyond the table, where CDF(k) = 1 - 0.5
        # zeta(alpha, k+1) / zeta(alpha, 7): each lands on its own level.
        table = _table(1.5, 7, True)
        z = table.model.normalizer
        far = np.array([table.last_level + 1, 10**6, 10**8])
        steps = _zeta([1.5], np.concatenate([far, far + 1]).reshape(1, -1).astype(float))[0]
        model_u = (table.cdf[2:5] + table.cdf[3:6]) / 2
        u = np.concatenate([[0.2, 0.405, 0.45], model_u, 1.0 - 0.25 * (steps[:3] + steps[3:]) / z])
        levels = [1, 3, 6, 7, 8, 9, *far.tolist()]
        assert per_draw_levels(table, u).tolist() == levels
        assert _tally_of(table, u) == (levels, [1] * len(levels))

    def test_tally_of_no_draws_is_empty(self):
        levels, counts = _table(2.0, 1).tally(_FixedUniforms(np.empty(0)), 0)
        assert levels.tolist() == counts.tolist() == []

    def test_sample_tallies_in_memory_bounded_by_a_block(self, monkeypatch):
        # Once the table is built, 1e6 draws at alpha 1.5 (about 3,000 beyond
        # the table) hold well under one int64 level per draw, which is 8 MB.
        real_tally = _CdfTable.tally
        tables = []

        def measured(self, rng, count):
            tables.append(self)
            tracemalloc.reset_peak()
            return real_tally(self, rng, count)

        monkeypatch.setattr(_CdfTable, "tally", measured)
        tracemalloc.start()
        try:
            d = sample(PowerLawModel(1.5, 1), 10**6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (table,) = tables
        assert d.total_authors == 10**6 and d.max_level > table.last_level
        assert peak - (table.cdf.nbytes + table.guide.nbytes + table.straddles.nbytes) < 3 * 2**20

    def test_sample_draws_no_more_than_a_block_at_a_time(self, random_fills):
        count = 3 * _DRAW_BLOCK + 7
        d = sample(PowerLawModel(1.5, 1), count, 1)
        assert random_fills == [_DRAW_BLOCK] * 3 + [7]
        assert d.total_authors == count

    @pytest.mark.parametrize("alpha", [1.3, 1.5, 2.0])
    def test_levels_beyond_the_table_against_mpmath(self, alpha):
        # Consecutive levels differ by a relative (alpha-1)/k in zeta. A
        # level is exact unless u lies within a fraction 2e-14 k/(alpha-1)
        # of a step from its edge, and never more than 1 + 2e-14 k/(alpha-1)
        # levels off: from about (alpha-1) * 5e13 on, levels are not resolved.
        table = _table(alpha, 1)
        # 1 - u log-uniform from the table's tail mass down to about ccdf(2^61).
        deepest = max(2.0**-53, 2.0 ** (61 * (1 - alpha)) / ((alpha - 1) * table.model.normalizer))
        tails = np.random.default_rng(4).uniform(math.log10(deepest), math.log10(1.0 - table.cdf[-1]), 12)
        u = 1.0 - 10.0**tails
        if alpha == 1.3:  # the 3,120th draw of sample(PowerLawModel(1.3), 6891, 3)
            u = np.append(u, 0.9999713321731779)
        offsets, exact_far = [], 0
        with mpmath.workdps(40):
            z = mpmath.zeta(alpha)
            for one in u:
                (level,) = table._beyond_table(one[None]).tolist()
                target = (1 - mpmath.mpf(one)) * z
                lo, hi, step = level, level, 1
                while mpmath.zeta(alpha, lo) <= target:  # CDF(lo - 1) >= u
                    lo, step = lo - step, 2 * step
                while mpmath.zeta(alpha, hi + 1) > target:  # CDF(hi) < u
                    hi, step = hi + step, 2 * step
                while hi - lo > 0:  # the exact level lies in [lo, hi]
                    mid = (lo + hi) // 2
                    lo, hi = (lo, mid) if mpmath.zeta(alpha, mid + 1) <= target else (mid + 1, hi)
                edge = (mpmath.zeta(alpha, lo) - target) / lo ** -mpmath.mpf(alpha)
                band = 2e-14 * lo / (alpha - 1)
                assert abs(level - lo) <= 1 + band
                if min(edge, 1 - edge) > band:
                    assert level == lo
                    exact_far += lo > 10**10
                offsets.append(level - lo)
        assert exact_far >= 2
        if alpha == 1.3:
            assert offsets[-1] == 1  # 799,687,384,657,417 against 416

    @pytest.mark.parametrize("alpha", [1.3, 1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("xmin", [1, 3, 40, 10**6, 2**40])
    def test_bracket_equals_doubling_plus_bisection(self, alpha, xmin):
        # Where float zeta is monotone in k, every search for its crossing
        # finds the same level. Monotone means a relative step (alpha-1)/k
        # well above its 2e-14 error: below (alpha-1) * 5e12, where the step
        # is ten times that. Towards (alpha-1) * 5e13 both searches stay
        # within the band test_levels_beyond_the_table_against_mpmath allows.
        table = _table(alpha, xmin)
        edge, z = table.cdf[-1], table.model.normalizer
        exact_to = (alpha - 1) * 5e12
        u = [edge, np.nextafter(edge, 1.0)]
        for limit in (exact_to, 10 * exact_to):  # 1 - u log-uniform down to about ccdf(limit)
            deepest = max(2.0**-53, hurwitz_zeta(alpha, int(limit)) / z)
            tails = np.random.default_rng(xmin).uniform(math.log10(deepest), math.log10(1.0 - edge), 200)
            u.extend(1.0 - 10.0**tails)
        u = np.array(u)
        new, old = table._beyond_table(u), _doubling_search(table, u)
        exact = old < exact_to
        assert exact[:2].all() and exact.sum() > 150
        assert np.array_equal(new[exact], old[exact])
        assert (np.abs(new - old) <= 2 + 4e-14 * old / (alpha - 1)).all()

    @pytest.mark.parametrize("xmin", [1, 3])
    def test_levels_up_to_two_to_the_62_returned_and_beyond_refused(self, xmin):
        # At alpha 1.05 over half the draws lie beyond the table and about
        # an eighth beyond 2^62. Each uniform is one whose exact level is a
        # fraction of 2^62; float u resolves it to about 2e-14 relative. A
        # doubling from the table's last level refused 0.75 and 0.97 at xmin 3.
        table = _table(1.05, xmin)
        returned, refused = (0.5, 0.75, 0.97, 1 - 2**-20), (1 + 2**-20, 1.03)
        with mpmath.workdps(40):
            z = mpmath.zeta(1.05, xmin)
            uniform = {f: float(1 - mpmath.zeta(1.05, int(f * 2**62)) / z) for f in returned + refused}
        for f in returned:
            (level,) = table._beyond_table(np.array([uniform[f]])).tolist()
            assert level == pytest.approx(f * 2**62, rel=1e-12)
            assert _tally_of(table, np.array([0.5, uniform[f]]))[0][1:] == [level]
        message = rf"^a sampled level lies beyond 2\^62 \(alpha 1\.05, xmin {xmin}\)$"
        for f in refused:
            for u in ([uniform[f]], [uniform[0.5], uniform[f]]):
                with pytest.raises(InputError, match=message):
                    table._beyond_table(np.array(u))
                with pytest.raises(InputError, match=message):
                    table.tally(_FixedUniforms(np.array(u)), len(u))

    def test_table_holds_two_to_the_16_model_rows(self):
        # 512 KiB of cumulative probabilities, one model row per guide cell,
        # after the body's rows, whatever the exponent.
        for alpha in (1.01, 1.5, 2.0, 3.0, 6.0, 10.0):
            for xmin, body in ((1, None), (10**6, _BODY)):
                table = _CdfTable(PowerLawModel(alpha, xmin), body)
                assert len(table.cdf) - len(table.body) == 2**16 == _GUIDE_CELLS
                assert table.last_level == xmin + 2**16 - 1

    def test_far_draw_on_the_last_level_joins_its_row(self, monkeypatch):
        # Float zeta may resolve a draw just beyond the table's last entry
        # to the last level itself: it is counted with that row's draws,
        # and the levels beyond the table follow it.
        table = _table(2.0, 1)
        last, calls = table.last_level, []

        def far(self, uniforms):
            calls.append(uniforms.tolist())
            return np.array([last, last + 3])

        monkeypatch.setattr(_CdfTable, "_beyond_table", far)
        u = np.array([table.cdf[-1], np.nextafter(table.cdf[-1], 1.0), 1.0 - 1e-12])
        assert _tally_of(table, u) == ([last, last + 3], [2, 1])
        assert calls == [u[1:].tolist()]

    def test_guide_marks_exactly_the_cells_that_straddle_rows(self):
        table = _table(2.0, 1)
        edges = np.searchsorted(table.cdf, np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS)
        assert np.array_equal(table.guide, edges[:-1])
        assert np.array_equal(table.straddles, edges[:-1] != edges[1:])

    @pytest.mark.parametrize("alpha", [math.inf, 1e308])
    def test_non_finite_normalizer_refused(self, alpha):
        # Every exponent whose normalizer overflows lies above the domain,
        # so the model refuses it before a table is built.
        message = rf"alpha must lie in \[1\.01, 10\], got {re.escape(repr(alpha))}$"
        with pytest.raises(InputError, match=message):
            _CdfTable(PowerLawModel(alpha, 1))

    def test_beyond_bound_message_keeps_every_digit_of_alpha(self):
        with pytest.raises(InputError, match=r"beyond 2\^62 \(alpha 1\.0100001, xmin 1\)$"):
            sample(PowerLawModel(1.0100001, 1), 10, 1)

    def test_beyond_bound_message_names_the_xmin(self):
        # At xmin 2^61 a level beyond 2^62 has probability 2^-9 at alpha 10,
        # the top of the domain: the support bound, not the exponent, is why.
        with pytest.raises(InputError, match=r"beyond 2\^62 \(alpha 10\.0, xmin 2305843009213693952\)$"):
            sample(PowerLawModel(10.0, 2**61), 1000, 1)

    @pytest.mark.parametrize("alpha", [1.1, 1.05])
    def test_refusal_at_the_first_probe_beyond_two_to_the_62(self, monkeypatch, alpha):
        # 31,245 of these draws lie beyond the table at alpha 1.1 and 55,731
        # at 1.05, and finishing every draw's search takes 34 and 36
        # evaluator calls. The first probe that proves a level beyond 2^62
        # refuses the batch, and the asymptotic guess puts it at 2^62 at once.
        table = _table(alpha, 1)
        u = np.random.default_rng(1).random(10**5)
        calls = []
        real_zeta = lotkamodel._zeta

        def counting_zeta(*args, **kwargs):
            calls.append(1)
            return real_zeta(*args, **kwargs)

        monkeypatch.setattr(lotkamodel, "_zeta", counting_zeta)
        with pytest.raises(InputError, match=rf"beyond 2\^62 \(alpha {alpha}, xmin 1\)$"):
            table._beyond_table(u[u > table.cdf[-1]])
        assert 1 <= len(calls) <= 2
