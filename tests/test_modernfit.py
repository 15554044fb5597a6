import contextlib
import math
import os
import sys
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import per_draw_distribution, per_draw_levels
from lotkafit import lotkamodel, modernfit
from lotkafit import (
    DegenerateFitError,
    FrequencyDistribution,
    InputError,
    MleResult,
    PowerLawModel,
    bias_experiment,
    compare_methods,
    expected_counts,
    gof_bootstrap,
    hurwitz_zeta,
    ks_distance,
    log_likelihood,
    mle_alpha,
    sample,
    select_xmin,
)
from lotkafit.freqdata import MAX_LEVEL, truncate_right
from lotkafit.loglogfit import Denominator, fit_historical
from lotkafit.lotkamodel import _DRAW_BLOCK, ALPHA_DOMAIN, _CdfTable, _zeta
from lotkafit.modernfit import (
    ALPHA_TOL,
    _EDGE,
    _KS_BLOCK_CELLS,
    _KS_HEAD,
    _fit_batch,
    _fit_tails,
    _ks,
    _least_ks,
)


@pytest.fixture(scope="module")
def noiseless_square_law():
    values = expected_counts(10**6, PowerLawModel(2.0, 1), 10**4)
    counts = {k: round(v) for k, v in values if round(v) > 0}
    return FrequencyDistribution.from_counts(counts, name="noiseless")


def brute_force_select(d):
    """Oracle for select_xmin: mle_alpha at every candidate, first minimum wins."""
    levels = [l for l, a in d.entries if a > 0]
    best = None
    for xmin in levels[:-2]:
        try:
            fit = mle_alpha(d, xmin)
        except DegenerateFitError:
            continue
        if best is None or fit.ks < best.ks:
            best = fit
    return best


@pytest.fixture(scope="module")
def big_sample():
    return sample(PowerLawModel(2.0, 1), 100_000, 7)


class TestLogLikelihood:
    def test_single_author_level_one(self):
        d = FrequencyDistribution.from_counts({1: 1})
        model = PowerLawModel(2.0, 1)
        assert log_likelihood(d, model) == pytest.approx(math.log(6 / math.pi**2), abs=1e-6)
        assert log_likelihood(d, model) == pytest.approx(-0.497700, abs=1e-6)

    def test_linear_in_counts(self):
        d1 = FrequencyDistribution.from_counts({1: 10, 3: 4, 7: 2})
        d2 = FrequencyDistribution.from_counts({1: 20, 3: 8, 7: 4})
        model = PowerLawModel(2.3, 1)
        assert log_likelihood(d2, model) == pytest.approx(2 * log_likelihood(d1, model), rel=1e-12)

    def test_true_alpha_beats_wrong_alpha(self):
        d = sample(PowerLawModel(2.0, 1), 10_000, 11)
        assert log_likelihood(d, PowerLawModel(2.0, 1)) > log_likelihood(d, PowerLawModel(5.0, 1))

    def test_levels_below_xmin_ignored(self):
        model = PowerLawModel(2.0, 3)
        with_body = FrequencyDistribution.from_counts({1: 500, 3: 10, 5: 4})
        tail_only = FrequencyDistribution.from_counts({3: 10, 5: 4})
        assert log_likelihood(with_body, model) == log_likelihood(tail_only, model)

    def test_empty_tail(self):
        d = FrequencyDistribution.from_counts({1: 5})
        with pytest.raises(DegenerateFitError, match="no authors at levels"):
            log_likelihood(d, PowerLawModel(2.0, 5))


class TestMleAlpha:
    def test_noiseless_self_consistency(self, noiseless_square_law):
        result = mle_alpha(noiseless_square_law, 1)
        assert result.alpha_hat == pytest.approx(2.0, abs=0.005)
        assert result.n_tail == noiseless_square_law.total_authors

    def test_sampled_data(self, big_sample):
        result = mle_alpha(big_sample, 1)
        assert result.alpha_hat == pytest.approx(2.0, abs=0.03)

    def test_agrees_with_likelihood_grid(self, big_sample):
        # Independent oracle: brute-force scan of the likelihood surface.
        result = mle_alpha(big_sample, 1)
        grid = np.arange(1.8, 2.2, 1e-5)
        values = [log_likelihood(big_sample, PowerLawModel(a, 1)) for a in grid]
        assert result.alpha_hat == pytest.approx(grid[int(np.argmax(values))], abs=2e-5)
        assert result.log_likelihood == pytest.approx(max(values), rel=1e-9)

    def test_single_level_tail(self):
        d = FrequencyDistribution.from_counts({4: 100})
        with pytest.raises(DegenerateFitError, match="degenerate tail"):
            mle_alpha(d, 1)

    def test_bracket_edge_reported_degenerate(self):
        d = FrequencyDistribution.from_counts({1: 10_000, 2: 1})
        with pytest.raises(DegenerateFitError, match="bracket edge"):
            mle_alpha(d, 1)

    def test_bad_xmin(self):
        d = FrequencyDistribution.from_counts({1: 5, 2: 3})
        with pytest.raises(InputError):
            mle_alpha(d, 0)

    @pytest.mark.parametrize(
        "counts, xmin, near",
        [
            ({1: 722, 2**62: 278}, 1, 1.08),
            ({2**40: 711, 2**60: 289}, 2**40, 1.25),
            ({2**40: 568, 2**41: 432}, 2**40, 4.34),
            ({3: 926, 4: 74}, 3, 9.65),
        ],
    )
    def test_exponent_within_tolerance_of_mpmath_root(self, counts, xmin, near):
        # The documented claim: alpha_hat lies within ALPHA_TOL of the score's
        # root, here near both ends of the bracket and at a large xmin. The
        # root is solved by mpmath at 40 digits; gaps seen are below 1e-13.
        root = _mpmath_score_root(counts, xmin)
        assert abs(root - near) < 0.01
        fit = mle_alpha(FrequencyDistribution.from_counts(counts), xmin)
        assert abs(fit.alpha_hat - root) <= ALPHA_TOL

    def test_root_above_the_bracket_reported_degenerate(self):
        # Nearly every author at xmin: the score's root lies near 16, above
        # the domain, so the likelihood still rises at its upper end.
        counts, xmin = {3: 990, 4: 10}, 3
        assert _mpmath_score_root(counts, xmin) > ALPHA_DOMAIN[1]
        with pytest.raises(DegenerateFitError, match=r"bracket edge \(alpha ~ 10\.0000\)"):
            mle_alpha(FrequencyDistribution.from_counts(counts), xmin)


def _mpmath_score_root(counts, xmin):
    """Root of psi(alpha) = d/dalpha ln zeta(alpha, xmin) + mean ln k, at 40 digits."""
    with mpmath.workdps(40):
        mean_log = mpmath.fsum(c * mpmath.log(k) for k, c in counts.items()) / sum(counts.values())

        def psi(alpha):
            return mpmath.zeta(alpha, xmin, 1) / mpmath.zeta(alpha, xmin) + mean_log

        return float(mpmath.findroot(psi, (mpmath.mpf("1.0001"), mpmath.mpf(20)), solver="illinois"))


class TestKsDistance:
    def test_zero_for_exact_model_increments(self):
        # Counts are exact (big-integer) model CDF increments; the last
        # observed level sits deep enough that the model mass beyond it
        # is under 1e-12, so both conditioned CDFs agree everywhere.
        model = PowerLawModel(2.0, 1)
        n = 10**15
        deep = 2 * 10**12
        counts = {}
        assigned = 0
        for k in range(1, 20):
            c = round(n * (hurwitz_zeta(2.0, k) - hurwitz_zeta(2.0, k + 1)) / model.normalizer)
            counts[k] = c
            assigned += c
        counts[deep] = n - assigned
        d = FrequencyDistribution.from_counts(counts)
        assert ks_distance(d, model) < 1e-12

    @pytest.mark.parametrize("alpha, xmin", [(1.7, 1), (2.0, 3), (2.6, 300)])
    def test_matches_dense_prefix_sum_reference(self, alpha, xmin):
        # Reference: the model CDF as a dense prefix sum over every level
        # from xmin to the top, normalized by mpmath's zeta.
        mpmath.mp.dps = 30
        d = sample(PowerLawModel(alpha, xmin), 20_000, 17)
        levels = np.array([l for l, a in d.entries if a > 0])
        counts = np.array([a for l, a in d.entries if a > 0], dtype=float)
        span = np.arange(xmin, levels[-1] + 1, dtype=float)
        model_cdf = np.cumsum(span**-alpha)[levels - xmin] / float(mpmath.zeta(alpha, xmin))
        reference = np.max(np.abs(np.cumsum(counts) / counts.sum() - model_cdf))
        assert ks_distance(d, PowerLawModel(alpha, xmin)) == pytest.approx(reference, abs=1e-13)

    def test_point_mass_at_one(self):
        d = FrequencyDistribution.from_counts({1: 1000})
        assert ks_distance(d, PowerLawModel(2.0, 1)) == pytest.approx(0.392073, abs=1e-6)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            levels = np.sort(rng.choice(np.arange(1, 200), size=8, replace=False))
            counts = rng.integers(1, 100, size=8)
            d = FrequencyDistribution.from_counts(
                {int(l): int(c) for l, c in zip(levels, counts)}
            )
            alpha = float(rng.uniform(1.2, 5.0))
            ks = ks_distance(d, PowerLawModel(alpha, 1))
            assert 0.0 <= ks <= 1.0

    def test_fitted_beats_distant_alpha(self):
        d = sample(PowerLawModel(2.0, 1), 5000, 19)
        fit = mle_alpha(d, 1)
        fitted_ks = ks_distance(d, PowerLawModel(fit.alpha_hat, 1))
        for off in (-0.5, 0.5):
            assert fitted_ks <= ks_distance(d, PowerLawModel(fit.alpha_hat + off, 1))

    def test_empty_tail(self):
        d = FrequencyDistribution.from_counts({1: 5})
        with pytest.raises(DegenerateFitError):
            ks_distance(d, PowerLawModel(2.0, 2))


class TestSelectXmin:
    def test_pure_power_law_selects_one(self):
        hits = 0
        for seed in range(1, 51):
            d = sample(PowerLawModel(2.0, 1), 5000, seed)
            hits += select_xmin(d).xmin == 1
        assert hits >= 45

    def test_spliced_body_pushes_xmin_up(self):
        # Uniform counts on 1..5 are no power law; the true power-law
        # region starts at 6, and the selector should find it.
        hits = 0
        for seed in range(1, 21):
            tail = sample(PowerLawModel(2.0, 6), 3000, seed)
            counts = {level: 600 for level in range(1, 6)}
            counts.update(tail.as_dict())
            d = FrequencyDistribution.from_counts(counts)
            hits += select_xmin(d).xmin >= 6
        assert hits > 10

    def test_too_few_levels(self):
        d = FrequencyDistribution.from_counts({1: 10, 2: 5})
        with pytest.raises(DegenerateFitError, match="3 distinct"):
            select_xmin(d)

    def test_ties_prefer_smallest_xmin(self):
        d = sample(PowerLawModel(2.0, 1), 3000, 5)
        result = select_xmin(d)
        levels = [l for l, a in d.entries if a > 0]
        candidates = levels[:-2]
        for xmin in candidates:
            if xmin >= result.xmin:
                break
            assert mle_alpha(d, xmin).ks > result.ks


    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_equals_brute_force_on_samples(self, seed):
        d = sample(PowerLawModel(2.0, 1), 3000, seed)
        assert select_xmin(d) == brute_force_select(d)

    def test_equals_brute_force_on_spliced_body(self):
        tail = sample(PowerLawModel(2.0, 6), 3000, 4)
        counts = {level: 600 for level in range(1, 6)}
        counts.update(tail.as_dict())
        d = FrequencyDistribution.from_counts(counts)
        result = select_xmin(d)
        assert result == brute_force_select(d)
        assert result.xmin >= 6

    def test_equals_brute_force_beyond_two_to_the_21(self):
        # A heavy tail whose level span exceeds 2^21, with levels on both
        # sides of the zeta evaluator's dense/tail switch at 64.
        d = sample(PowerLawModel(1.5, 1), 4000, 8)
        assert d.max_level - 1 > 1 << 21
        assert select_xmin(d) == brute_force_select(d)

    def test_equals_brute_force_with_candidates_pinned_at_the_bracket(self):
        # At xmin 1 nearly every author sits at level 1, so the likelihood
        # rises all the way to the upper bracket end: that candidate is
        # skipped (NaN ks) and the brute force skips it as degenerate. The
        # lower end cannot pin a distribution's candidate: that needs a
        # mean ln(k / xmin) above 99.4, and levels up to 2^62 keep it
        # below 43.
        d = FrequencyDistribution.from_counts(
            {1: 10**6, 2: 30, 3: 10, 5: 4, 8: 2, 13: 1, 21: 1, 34: 1}
        )
        levels, counts = d.populated_arrays
        starts = np.arange(len(levels) - 2)
        sets = np.zeros_like(starts)
        fits = _fit_tails(levels[None, :], counts[None, :], sets, starts, levels[starts])
        pinned = np.isnan(fits.ks)
        assert pinned[0] and not pinned.all()
        assert (fits.alpha[pinned] == ALPHA_DOMAIN[1]).all()
        assert np.isnan(fits.log_likelihood[pinned]).all()
        result = select_xmin(d)
        assert result == brute_force_select(d)
        assert result.xmin > 1

    def test_bracket_edge_takes_one_exponent_row(self, monkeypatch):
        # The score at the upper inner edge of the domain is one evaluator
        # call with that one exponent against all candidate start points;
        # the lower edge, which cannot pin a candidate, is not evaluated.
        calls = []

        def spy(alpha, starts, derivatives=False):
            calls.append((np.asarray(alpha).tolist(), np.shape(starts), derivatives))
            return _zeta(alpha, starts, derivatives)

        monkeypatch.setattr(modernfit, "_zeta", spy)
        edges = [ALPHA_DOMAIN[1] - _EDGE]
        for authors in (100, 3000, 100_000):
            d = sample(PowerLawModel(2.0, 1), authors, 5)
            candidates = len(d.populated_arrays[0]) - 2
            calls.clear()
            select_xmin(d)
            assert calls[0] == (edges, (1, candidates), True)
            assert all(len(alpha) <= candidates for alpha, _, _ in calls)


# Levels mix a dense body, a sparse tail and values up to 2^62, the
# largest level; zero counts are allowed wherever one level is populated.
_levels = st.one_of(st.integers(1, 40), st.integers(41, 5000), st.integers(5001, 2**62))
_distributions = st.one_of(
    st.dictionaries(_levels, st.integers(0, 400), min_size=1, max_size=25),
    # The likelihood at xmin 1 rises to the upper bracket end: that candidate is pinned.
    st.just({1: 10**6, 2: 30, 3: 10, 5: 4, 8: 2, 13: 1, 21: 1, 34: 1}),
    st.just({1: 10_000, 2: 1}),
).filter(lambda counts: any(counts.values())).map(FrequencyDistribution.from_counts)


def batch_ks(levels, counts, *args, head=None):
    """_ks of a padded batch, with the cumulative counts and next levels it takes."""
    return _ks(np.cumsum(counts, axis=1), (levels + 1).astype(float), *args, head=head)


def spy_ks_blocks(monkeypatch):
    """The (rows, columns) of every KS evaluator call from now on, as a list that fills.

    KS calls are the only ones without derivatives whose start points
    span more than one column.
    """
    shapes = []

    def spy(alpha, starts, derivatives=False):
        shape = np.shape(starts)
        if not derivatives and shape[1] > 1:
            shapes.append((max(len(alpha), shape[0]), shape[1]))
        return _zeta(alpha, starts, derivatives)

    monkeypatch.setattr(modernfit, "_zeta", spy)
    return shapes


def fit_outcome(fit, *args):
    """What a one-dataset fit returns: the MleResult, or the DegenerateFitError's message."""
    try:
        return fit(*args)
    except DegenerateFitError as exc:
        return str(exc)


def batch_outcomes(dists, xmin):
    return [o if isinstance(o, MleResult) else str(o) for o in _fit_batch(dists, xmin)]


class TestFitBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        dists=st.lists(_distributions, min_size=1, max_size=12),
        xmin=st.one_of(st.none(), st.integers(1, 60), st.sampled_from([2**62, 2**63, 10**400])),
        data=st.data(),
    )
    def test_each_dataset_fits_as_alone(self, dists, xmin, data):
        # Every dataset's entry is exactly its own select_xmin or mle_alpha
        # result, or the same DegenerateFitError message, and no reordering
        # or split of the list changes it.
        if xmin is not None and xmin > MAX_LEVEL:
            # An xmin beyond the range of a level: the batch refuses it as each fit alone does.
            for fit in [lambda: _fit_batch(dists, xmin), *(lambda d=d: mle_alpha(d, xmin) for d in dists)]:
                with pytest.raises(InputError, match=f"^xmin must be <= 2\\^62, got {xmin}$"):
                    fit()
            return
        alone = [
            fit_outcome(select_xmin, d) if xmin is None else fit_outcome(mle_alpha, d, xmin)
            for d in dists
        ]
        assert batch_outcomes(dists, xmin) == alone
        order = data.draw(st.permutations(range(len(dists))))
        assert batch_outcomes([dists[i] for i in order], xmin) == [alone[i] for i in order]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(dists)), max_size=3)))
        parts = [dists[a:b] for a, b in zip([0] + cuts, cuts + [len(dists)])]
        assert [o for part in parts for o in batch_outcomes(part, xmin)] == alone

    def test_ks_blocks_stay_within_the_cell_bound(self, monkeypatch):
        # No KS evaluator call of a batch, bound pass or full pass, takes
        # more than _KS_BLOCK_CELLS model-CDF cells, at 1e5 authors, and
        # the bound leaves under a tenth of the tails' cells to evaluate.
        shapes = spy_ks_blocks(monkeypatch)
        dists = [sample(PowerLawModel(2.0, 1), authors, 5) for authors in (100_000, 3000, 100_000)]
        fits = _fit_batch(dists)
        cells = [rows * cols for rows, cols in shapes]
        assert fits == [select_xmin(d) for d in dists]
        tails = sum(n * (n + 1) // 2 - 3 for n in (len(d.populated_arrays[0]) for d in dists))
        assert len(cells) > 1
        assert max(rows * cols for rows, cols in shapes) <= _KS_BLOCK_CELLS
        assert sum(cells) < tails / 10

    def test_ks_blocks_stay_within_the_cell_bound_when_nothing_is_pruned(self, monkeypatch):
        # A zipf-1.3 law cut off at level 2,000: each tail follows its model
        # over its first levels and strays only deep, at the cut, so no
        # bound exceeds the full distance of the candidate of least bound.
        # In a batch of six copies, every candidate is then evaluated in
        # full, exactly as a full scan; the bound pass, at over 8,192
        # candidates, takes several blocks; and still no evaluator call
        # exceeds the cell bound.
        k = np.arange(1, 2001)
        expected = np.round(1e6 * k**-1.3 / (k**-1.3).sum()).astype(np.int64)
        row, row_counts = FrequencyDistribution.from_arrays(k, expected).populated_arrays
        levels, counts = np.tile(row, (6, 1)), np.tile(row_counts, (6, 1))
        starts = np.tile(np.arange(len(row) - 2), 6)
        sets = np.repeat(np.arange(6), len(row) - 2)
        shapes = spy_ks_blocks(monkeypatch)
        fits = _fit_tails(levels, counts, sets, starts, levels[sets, starts])
        monkeypatch.undo()
        inside = np.flatnonzero(~np.isnan(fits.ks))
        assert len(inside) * _KS_HEAD > _KS_BLOCK_CELLS
        assert np.isfinite(fits.ks[inside]).all()
        cells = [rows * cols for rows, cols in shapes]
        assert max(cells) <= _KS_BLOCK_CELLS
        assert sum(rows for rows, cols in shapes if cols == _KS_HEAD) == len(inside)
        assert sum(cells) >= sum(len(row) - starts[inside])
        alpha = fits.alpha[inside]
        normalizer = _zeta(alpha, levels[sets[inside], starts[inside], None].astype(float))[:, 0]
        full = batch_ks(levels, counts, sets[inside], starts[inside], alpha, normalizer)
        assert fits.ks[inside].tobytes() == full.tobytes()


def poisson_body_zipf_tail(authors, seed):
    """Half the authors from a Poisson body near level 4, half from a zipf-2.3 tail from 8."""
    tail = sample(PowerLawModel(2.3, 8), authors // 2, seed)
    body = np.random.default_rng(seed).poisson(3.0, authors - authors // 2) + 1
    return per_draw_distribution(np.concatenate([body, np.repeat(tail.levels, tail.counts)]), "mixture")


class TestPrunedKs:
    """select_xmin computes the full KS distance only where its bound cannot rule it out."""

    @settings(max_examples=100, deadline=None)
    @given(d=_distributions)
    def test_equals_brute_force(self, d):
        expected = brute_force_select(d)
        if expected is None:
            populated = len(d.populated_arrays[0])
            expected = (
                f"need >= 3 distinct populated levels to select xmin, got {populated}"
                if populated < 3
                else "no xmin candidate produced a non-degenerate fit"
            )
        assert fit_outcome(select_xmin, d) == expected

    def test_equals_brute_force_on_mixtures_alone_and_batched(self):
        # A Poisson body under a zipf tail puts the best xmin at 6-15, so the
        # candidate of least bound is rarely the selected one.
        dists = [poisson_body_zipf_tail(3000, seed) for seed in (1, 2, 3, 4)]
        dists += [poisson_body_zipf_tail(20_000, seed) for seed in (1, 2)]
        expected = [brute_force_select(d) for d in dists]
        assert all(6 <= fit.xmin <= 15 for fit in expected)
        assert [select_xmin(d) for d in dists] == expected
        assert _fit_batch(dists) == expected

    def test_tie_prefers_smallest_xmin_over_the_least_bound(self):
        # Two candidates at exactly the least distance, 1/4. The smaller
        # xmin is not the candidate of least bound: its distance is reached
        # within its first levels, so its bound equals the round-1 distance
        # and only a bound test with <= evaluates it. At exponents 10 and 3
        # each model CDF is exactly 1 from level 1,000 and at 2^61, so those
        # gaps are exact fractions of the authors above them.
        levels = np.array([1, 1000, *range(2000, 2008), 2**61, 2**62])
        counts = np.array([29_999, 1, *[10] * 8, 7_420, 2_500])
        sets = np.zeros(2, dtype=np.intp)
        starts = np.array([0, 2])
        alpha = np.array([10.0, 3.0])
        normalizer = _zeta(alpha, levels[starts, None].astype(float))[:, 0]
        args = (levels[None, :], counts[None, :], sets, starts, alpha, normalizer)
        bound = batch_ks(*args, head=_KS_HEAD)
        assert bound[1] < bound[0] == 0.25
        assert _least_ks(*args).tolist() == batch_ks(*args).tolist() == [0.25, 0.25]
        # The same two candidates as one each of two datasets: round 1
        # evaluates both in full, and round 2 none.
        one_each = (np.tile(levels, (2, 1)), np.tile(counts, (2, 1)), np.arange(2), *args[3:])
        assert _least_ks(*one_each).tobytes() == batch_ks(*one_each).tobytes() == batch_ks(*args).tobytes()

    def test_gathered_cells_equal_broadcast_cells(self):
        # The bound is exact because every KS cell is the same float in any
        # block: a model-CDF cell against per-row gathered levels, as in a
        # bound block or a block of several datasets, is bit for bit the
        # cell of the one-dataset block where the levels broadcast. Levels
        # lie on both sides of the evaluator's dense/tail switch at 64.
        d = sample(PowerLawModel(1.5, 1), 4000, 8)
        levels, counts = d.populated_arrays
        starts = np.arange(len(levels) - 2)
        sets = np.zeros_like(starts)
        fits = _fit_tails(levels[None, :], counts[None, :], sets, starts, levels[starts])
        inside = np.flatnonzero(~np.isnan(fits.ks))
        alpha = fits.alpha[inside]
        next_levels = (levels + 1).astype(float)
        cols = np.minimum(starts[inside, None] + np.arange(_KS_HEAD), len(levels) - 1)
        broadcast = _zeta(alpha, next_levels[None, :])
        gathered = _zeta(alpha, next_levels[cols])
        assert gathered.tobytes() == np.take_along_axis(broadcast, cols, axis=1).tobytes()
        # A head as wide as the batch covers every cell: the bound pass then
        # gives each full distance, bit for bit.
        normalizer = _zeta(alpha, levels[inside, None].astype(float))[:, 0]
        args = (levels[None, :], counts[None, :], sets[inside], starts[inside], alpha, normalizer)
        assert batch_ks(*args, head=len(levels)).tobytes() == batch_ks(*args).tobytes()


class TestGofBootstrap:
    def test_deterministic(self):
        d = sample(PowerLawModel(2.0, 1), 200, 9)
        fit = select_xmin(d)
        p1 = gof_bootstrap(d, fit, 100, seed=4)
        p2 = gof_bootstrap(d, fit, 100, seed=4)
        assert p1 == p2

    def test_zero_observed_ks_gives_p_one(self):
        d = sample(PowerLawModel(2.0, 1), 150, 2)
        fit = select_xmin(d)
        perfect = MleResult(
            alpha_hat=fit.alpha_hat,
            xmin=fit.xmin,
            ks=0.0,
            n_tail=fit.n_tail,
            log_likelihood=fit.log_likelihood,
        )
        assert gof_bootstrap(d, perfect, 100, seed=1) == 1.0

    def test_n_boot_floor(self):
        d = sample(PowerLawModel(2.0, 1), 150, 2)
        fit = select_xmin(d)
        with pytest.raises(InputError, match="n_boot"):
            gof_bootstrap(d, fit, 99, seed=1)

    def test_n_boot_beyond_two_to_the_62_refused(self):
        # Refused before any replicate runs: the replicate runner keeps
        # replicate numbers in an int64 failure map.
        d = FrequencyDistribution.from_counts({1: 50, 2: 12, 3: 5, 5: 2})
        fit = mle_alpha(d, 1)
        with pytest.raises(InputError, match=rf"n_boot must lie in \[100, 2\^62\], got {10**23}$"):
            gof_bootstrap(d, fit, 10**23, seed=1)

    def test_independent_of_ambient_rng_state(self):
        # Replicates derive their generators from (seed, r), so global
        # numpy RNG state and surrounding draws must not matter.
        d = sample(PowerLawModel(2.0, 1), 150, 6)
        fit = select_xmin(d)
        np.random.seed(1)
        p1 = gof_bootstrap(d, fit, 100, seed=2)
        np.random.seed(999)
        np.random.random(1000)
        p2 = gof_bootstrap(d, fit, 100, seed=2)
        assert p1 == p2

    def test_fixed_xmin_refit_mode(self):
        d = sample(PowerLawModel(2.0, 1), 200, 21)
        fit = mle_alpha(d, 1)
        p = gof_bootstrap(d, fit, 100, seed=3, reselect_xmin=False)
        assert 0.0 <= p <= 1.0

    def test_body_resampled_when_xmin_above_one(self):
        d = sample(PowerLawModel(2.0, 1), 400, 13)
        fit = mle_alpha(d, 3)
        p = gof_bootstrap(d, fit, 100, seed=8, reselect_xmin=False)
        assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize("lowest", [1, 3])
    def test_replicates_at_the_lowest_populated_xmin_are_model_samples(self, monkeypatch, lowest):
        # With no body below xmin, the bootstrap's table is the model's own,
        # float for float, so each replicate is the sampler's tally of the
        # replicate's generator, bit for bit.
        d = sample(PowerLawModel(2.0, lowest), 1000, 9)
        fit = mle_alpha(d, lowest)
        assert d.populated_arrays[0][0] == lowest
        batches = []
        real_fit_batch = modernfit._fit_batch

        def recording(dists, xmin):
            batches.append(dists)
            return real_fit_batch(dists, xmin)

        monkeypatch.setattr(modernfit, "_cpu_count", lambda: 1)
        monkeypatch.setattr(modernfit, "_fit_batch", recording)
        gof_bootstrap(d, fit, 100, seed=5, reselect_xmin=False)
        replicates = [replicate for batch in batches for replicate in batch]
        assert len(replicates) == 100  # none redrawn
        table = _CdfTable(PowerLawModel(fit.alpha_hat, lowest))
        for r, replicate in enumerate(replicates):
            levels, counts = table.tally(np.random.default_rng((5, r, 0)), 1000)
            assert replicate.levels.tobytes() == levels.tobytes()
            assert replicate.counts.tobytes() == counts.tobytes()

    def test_no_refit_pass_once_every_replicate_is_refit(self, monkeypatch):
        # Every replicate refits on its first draw here, so each chunk makes
        # one pass, and no pass refits an empty batch.
        d = sample(PowerLawModel(2.0, 1), 1000, 9)
        fit = mle_alpha(d, 1)
        batches = []
        real_fit_batch = modernfit._fit_batch

        def recording(dists, xmin):
            batches.append(len(dists))
            return real_fit_batch(dists, xmin)

        monkeypatch.setattr(modernfit, "_cpu_count", lambda: 1)
        monkeypatch.setattr(modernfit, "_fit_batch", recording)
        gof_bootstrap(d, fit, 100, seed=5, reselect_xmin=False)
        assert sum(batches) == 100
        assert all(batches)

    def test_body_picks_hold_no_array_per_body_author(self, monkeypatch):
        # 7 x 150,000 authors below xmin 8: a pool of one int64 level index
        # per body author would hold 8.4 MB. The body is instead the first 7
        # rows of the sampler table, and one replicate (replicate 0, run in
        # place of the runner) peaks well under that, sampler table included.
        counts = {k: 150_000 for k in range(1, 8)} | {8: 300, 9: 200, 12: 100, 20: 40, 50: 5, 100: 1}
        d = FrequencyDistribution.from_counts(counts)
        fit = mle_alpha(d, 8)
        monkeypatch.setattr(modernfit, "_replicates", lambda job, count, levels: job(range(1)))
        tracemalloc.start()
        try:
            gof_bootstrap(d, fit, 100, seed=1, reselect_xmin=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 7 * 150_000


@pytest.fixture(scope="module")
def mixed_replicates():
    """2,000 replicates of a bootstrap table: 1,200 observed authors, 582 of them below xmin 8.

    Returns the observed distribution, the fitted tail model and the
    replicates' pooled levels and counts, with each replicate's tail count.
    """
    d = poisson_body_zipf_tail(1200, 4)
    levels, counts = d.populated_arrays
    body = int(np.searchsorted(levels, 8))
    model = PowerLawModel(mle_alpha(d, 8).alpha_hat, 8)
    table = _CdfTable(model, (levels[:body], counts[:body], d.total_authors))
    tallies = [table.tally(np.random.default_rng((3, r, 0)), d.total_authors) for r in range(2000)]
    tail_counts = np.array([counts[levels >= 8].sum() for levels, counts in tallies])
    drawn, where = np.unique(np.concatenate([levels for levels, _ in tallies]), return_inverse=True)
    pooled = np.bincount(where, weights=np.concatenate([counts for _, counts in tallies]))
    return d, model, drawn, pooled, tail_counts


class TestBootstrapReplicateLaw:
    """Each author of a replicate is a body author with probability n_body / n, else a model draw."""

    def test_tail_counts_are_binomial(self, mixed_replicates):
        # 20 bins of about equal Binomial(n, p_tail) mass.
        d, _, _, _, tail_counts = mixed_replicates
        levels, counts = d.populated_arrays
        n, p = d.total_authors, counts[levels >= 8].sum() / d.total_authors
        edges = np.unique(stats.binom.ppf(np.arange(1, 20) / 20, n, p))
        expected = np.diff(stats.binom.cdf(edges, n, p), prepend=0.0, append=1.0) * len(tail_counts)
        observed = np.bincount(np.searchsorted(edges, tail_counts), minlength=len(edges) + 1)
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_body_picks_follow_the_body_counts(self, mixed_replicates):
        d, _, drawn, pooled, _ = mixed_replicates
        levels, counts = d.populated_arrays
        body_levels, body_counts = levels[levels < 8], counts[levels < 8]
        assert np.array_equal(drawn[drawn < 8], body_levels)
        observed = pooled[drawn < 8]
        expected = observed.sum() * body_counts / body_counts.sum()
        assert stats.chisquare(observed, expected).pvalue > 1e-3

    def test_first_tail_levels_follow_the_pmf(self, mixed_replicates):
        # Levels 8..27 one by one, the rest pooled.
        _, model, drawn, pooled, tail_counts = mixed_replicates
        head = np.arange(8, 28)
        observed = np.append(pooled[np.searchsorted(drawn, head)], pooled[drawn >= 28].sum())
        assert np.array_equal(drawn[(drawn >= 8) & (drawn < 28)], head)
        pmf = np.append(np.power(head, -model.alpha), hurwitz_zeta(model.alpha, 28)) / model.normalizer
        assert stats.chisquare(observed, tail_counts.sum() * pmf).pvalue > 1e-3


class TestCompareMethods:
    def test_noiseless_consistency(self, noiseless_square_law):
        report = compare_methods(noiseless_square_law, 30)
        assert report.divergence is not None
        assert report.divergence < 0.02
        assert "right truncation at 30" in report.notes

    def test_sampled_report(self):
        d = sample(PowerLawModel(2.0, 1), 10_000, 3)
        levels = [l for l, a in d.entries if a > 0]
        cumulative = np.cumsum([d.authors_at(l) for l in levels]) / d.total_authors
        p90 = levels[int(np.searchsorted(cumulative, 0.9))]
        report = compare_methods(d, p90)
        assert report.historical is not None
        assert report.modern is not None
        assert report.modern.alpha_hat == pytest.approx(2.0, abs=0.1)

    def test_historical_failure_surfaces_in_notes(self):
        d = sample(PowerLawModel(2.0, 1), 1000, 5)
        report = compare_methods(d, 1)
        assert report.historical is None
        assert report.divergence is None
        assert "historical fit failed" in report.notes
        assert report.modern is not None

    def test_round_trip_dict(self, noiseless_square_law):
        payload = compare_methods(noiseless_square_law, 30).to_dict()
        assert payload["cutoff_used"] == 30
        assert payload["divergence"] == pytest.approx(
            abs(payload["historical"]["exponent"] - payload["modern"]["alpha_hat"]),
            abs=1e-12,
        )


class TestBiasExperiment:
    def test_deterministic(self):
        t1 = bias_experiment(2.0, 2000, [30, 10**6], replicates=10, seed=3)
        t2 = bias_experiment(2.0, 2000, [30, 10**6], replicates=10, seed=3)
        assert t1 == t2

    def test_table_shape(self):
        table = bias_experiment(2.0, 2000, [30, 10**6], replicates=10, seed=3)
        assert [row.cutoff for row in table.rows] == [30, 10**6]
        text = table.to_text_rows()
        lines = text.strip().split("\n")
        assert lines[0] == "cutoff,mean_hist_err,sd_hist_err,mean_mle_err,sd_mle_err"
        assert len(lines) == 3

    def test_modern_unbiased_without_cutoff(self):
        table = bias_experiment(2.0, 100_000, [10**6], replicates=10, seed=1)
        assert abs(table.rows[0].mean_mle_err) < 0.02

    def test_validation(self):
        with pytest.raises(InputError, match="replicates"):
            bias_experiment(2.0, 1000, [30], replicates=9, seed=1)
        with pytest.raises(InputError, match="cutoff"):
            bias_experiment(2.0, 1000, [], replicates=10, seed=1)
        with pytest.raises(InputError, match=r"alpha must lie in \[1\.01, 10\], got 1\.005$"):
            bias_experiment(1.005, 1000, [30], replicates=10, seed=1)

    def test_counts_beyond_two_to_the_62_refused(self):
        # Refused before anything is allocated or any replicate runs.
        with pytest.raises(InputError, match=rf"authors must lie in \[1, 2\^62\], got {10**23}$"):
            bias_experiment(2.0, 10**23, [30], replicates=10, seed=1)
        with pytest.raises(InputError, match=rf"replicates must lie in \[10, 2\^62\], got {10**23}$"):
            bias_experiment(2.0, 100, [30], replicates=10**23, seed=1)

    def test_repeated_cutoff_refused(self):
        # Rows are keyed by cutoff, so a repeated cutoff would pool every
        # replicate's errors twice into one row: n_hist 20 from 10 replicates.
        with pytest.raises(InputError, match=r"cutoffs must be distinct, got \[30, 30\]$"):
            bias_experiment(2.0, 2000, [30, 30], replicates=10, seed=1)
        with pytest.raises(InputError, match="distinct"):
            bias_experiment(2.0, 2000, [30, 10**6, 30], replicates=10, seed=1)
        row = bias_experiment(2.0, 2000, [30], replicates=10, seed=1).rows[0]
        assert (row.n_hist, row.n_mle) == (10, 10)

    def test_all_replicates_degenerate_is_error(self):
        with pytest.raises(DegenerateFitError, match="all 10 replicates"):
            bias_experiment(2.0, 500, [1], replicates=10, seed=1)


def serial_bootstrap_ks(d, fit, n_boot, seed, reselect_xmin):
    """Oracle for the bootstrap's replicate KS values: one plain loop in replicate order.

    Each attempt draws one uniform per author and looks each up by a plain
    search of the table of the observed body and the fitted tail.
    """
    levels, counts = d.populated_arrays
    body = int(np.searchsorted(levels, fit.xmin))
    n = d.total_authors
    table = _CdfTable(PowerLawModel(fit.alpha_hat, fit.xmin), (levels[:body], counts[:body], n))
    ks = []
    for r in range(n_boot):
        for attempt in range(10):
            rng = np.random.default_rng((seed, r, attempt))
            replicate = per_draw_distribution(per_draw_levels(table, rng.random(n)), "bootstrap")
            try:
                refit = select_xmin(replicate) if reselect_xmin else mle_alpha(replicate, fit.xmin)
            except DegenerateFitError:
                continue
            ks.append(refit.ks)
            break
        else:
            raise AssertionError(f"oracle replicate {r} not refit")
    return ks


def serial_bias_errors(alpha, authors, cutoffs, replicates, seed):
    """Oracle for the bias replicates: replicates x cutoffs x (historical, MLE) errors, NaN on failure."""
    table = _CdfTable(PowerLawModel(alpha, 1))
    out = np.full((replicates, len(cutoffs), 2), np.nan)
    for r in range(replicates):
        draws = per_draw_levels(table, np.random.default_rng((seed, r)).random(authors))
        population = per_draw_distribution(draws, "bias")
        for j, cutoff in enumerate(cutoffs):
            with contextlib.suppress(DegenerateFitError, InputError):
                out[r, j, 0] = fit_historical(population, cutoff, Denominator.FULL).exponent - alpha
            with contextlib.suppress(DegenerateFitError, InputError):
                out[r, j, 1] = select_xmin(truncate_right(population, cutoff)).alpha_hat - alpha
    return out


def assert_same_bits(results, oracle):
    """The runner's per-replicate arrays, stacked, are the oracle's array bit for bit, NaN included."""
    stacked = np.array(results)
    assert stacked.shape == oracle.shape
    assert stacked.tobytes() == oracle.tobytes()


@pytest.fixture(params=[1, 2, 3], ids=lambda w: f"workers{w}")
def workers(request, monkeypatch):
    """Forces the runner's CPU count, so the fork path runs on a 1-CPU machine too.

    Returns the list of children the runner forked, recorded in the caller.
    """
    if request.param > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    monkeypatch.setattr(modernfit, "_cpu_count", lambda: request.param)
    forked = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield request.param, forked
    # The runner reaps every child it forked, whether or not a job raised.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def runner_results(monkeypatch):
    """Every list the replicate runner returns, in call order."""
    seen = []
    real = modernfit._replicates

    def recording(job, count, levels):
        results = real(job, count, levels)
        seen.append(results)
        return results

    monkeypatch.setattr(modernfit, "_replicates", recording)
    return seen


def per_replicate(job):
    """The chunk job of the replicate runner that applies job to each replicate."""
    return lambda rs: [job(r) for r in rs]


class TestReplicateRunner:
    @pytest.mark.parametrize("reselect_xmin", [True, False])
    def test_bootstrap_replicates_equal_serial_loop(self, workers, runner_results, reselect_xmin):
        count, forked = workers
        d = sample(PowerLawModel(2.0, 1), 1000, 9)
        fit = select_xmin(d) if reselect_xmin else mle_alpha(d, 2)
        p = gof_bootstrap(d, fit, 100, seed=5, reselect_xmin=reselect_xmin)
        oracle = serial_bootstrap_ks(d, fit, 100, 5, reselect_xmin)
        assert runner_results == [oracle]
        assert p == float(np.mean(np.array(oracle) >= fit.ks))
        assert len(forked) == count - 1

    def test_redrawn_replicates_equal_serial_loop(self, workers, runner_results):
        # About one replicate in five holds fewer than three levels and is
        # redrawn; a chunk refits its redrawn replicates together, and each
        # must still get the attempt a serial loop gives it.
        count, forked = workers
        d = FrequencyDistribution.from_counts({1: 6, 2: 2, 3: 1, 5: 1})
        fit = select_xmin(d)
        p = gof_bootstrap(d, fit, 1000, seed=1)
        oracle = serial_bootstrap_ks(d, fit, 1000, 1, True)
        assert runner_results == [oracle]
        assert p == float(np.mean(np.array(oracle) >= fit.ks))
        assert len(forked) == count - 1

    def test_bias_replicates_equal_serial_loop(self, workers, runner_results, monkeypatch):
        count, forked = workers
        # Replicate 0's truncations hold 93 levels, so the 29 replicates
        # after it run in three chunks of up to 10.
        cutoffs = [5, 30, 10**6]
        table = bias_experiment(2.0, 2000, cutoffs, replicates=30, seed=2)
        (results,) = runner_results
        assert_same_bits(results, serial_bias_errors(2.0, 2000, cutoffs, 30, 2))
        assert len(forked) == count - 1
        monkeypatch.setattr(modernfit, "_cpu_count", lambda: 1)
        assert table == bias_experiment(2.0, 2000, cutoffs, replicates=30, seed=2)

    @pytest.mark.parametrize("reselect_xmin", [True, False])
    def test_replicates_drawn_in_small_blocks_equal_serial_loop(self, runner_results, monkeypatch, reselect_xmin):
        # Blocks of 64 draws split each replicate's draws of body and tail
        # authors over many blocks; the replicates are still the serial
        # loop's, which draws each uniform array whole.
        monkeypatch.setattr(lotkamodel, "_DRAW_BLOCK", 64)
        d = poisson_body_zipf_tail(2000, 1)
        fit = select_xmin(d) if reselect_xmin else mle_alpha(d, 8)
        assert fit.xmin > 1
        gof_bootstrap(d, fit, 100, seed=5, reselect_xmin=reselect_xmin)
        assert runner_results == [serial_bootstrap_ks(d, fit, 100, 5, reselect_xmin)]
        cutoffs = [5, 30]
        bias_experiment(2.0, 2000, cutoffs, replicates=10, seed=2)
        assert_same_bits(runner_results[1], serial_bias_errors(2.0, 2000, cutoffs, 10, 2))

    def test_replicates_draw_no_more_than_a_block_at_a_time(self, monkeypatch, random_fills):
        monkeypatch.setattr(modernfit, "_cpu_count", lambda: 1)
        n = 3 * _DRAW_BLOCK + 7
        d = sample(PowerLawModel(2.0, 1), n, 9)
        fit = mle_alpha(d, 2)
        fills = random_fills
        fills.clear()
        gof_bootstrap(d, fit, 100, seed=5, reselect_xmin=False)
        assert max(fills) <= _DRAW_BLOCK
        # Each replicate draws one uniform per author, body or tail; none is
        # redrawn at this size.
        assert sum(fills) == 100 * n
        fills.clear()
        bias_experiment(2.0, n, [30], replicates=10, seed=2)
        assert max(fills) <= _DRAW_BLOCK and sum(fills) == 10 * n

    def test_lowest_failing_replicate_raises_its_own_exception(self, workers):
        # Replicates 3, 4 and 8 fail; whichever worker runs them, the
        # exception of replicate 3 is the one a serial loop raises.
        def job(r):
            if r == 3:
                raise DegenerateFitError("replicate 3 could not be refit")
            if r == 4:
                raise InputError("replicate 4 is bad input")
            if r == 8:
                raise ValueError("replicate 8")
            return r * r

        mask = os.sched_getaffinity(0)
        with pytest.raises(DegenerateFitError, match=r"^replicate 3 could not be refit$"):
            modernfit._replicates(per_replicate(job), 12, 400)
        assert os.sched_getaffinity(0) == mask
        squares = modernfit._replicates(per_replicate(lambda r: r * r), 12, 400)
        assert squares == [r * r for r in range(12)]
        assert os.sched_getaffinity(0) == mask

    def test_failure_of_replicate_zero_raises_before_forking(self, workers):
        _, forked = workers

        def job(r):
            raise InputError(f"replicate {r} is bad input")

        with pytest.raises(InputError, match=r"^replicate 0 is bad input$"):
            modernfit._replicates(per_replicate(job), 12, 400)
        assert forked == []

    def test_unrefittable_bootstrap_raises_same_replicate(self, workers):
        # Replicate 34 is the first that the serial oracle cannot refit in
        # 10 attempts.
        tiny = FrequencyDistribution.from_counts({1: 1, 2: 1, 3: 1})
        fit = select_xmin(tiny)
        with pytest.raises(AssertionError, match=r"^oracle replicate 34 not refit$"):
            serial_bootstrap_ks(tiny, fit, 100, 1, True)
        with pytest.raises(DegenerateFitError, match=r"^bootstrap replicate 34 could not be "):
            gof_bootstrap(tiny, fit, 100, seed=1)

    def test_children_do_not_flush_the_callers_stdout(self, workers, capfd):
        # Text buffered but not yet written when the children fork must
        # reach stdout exactly once: the children leave through os._exit.
        count, forked = workers
        buffered = os.fdopen(os.dup(1), "w", buffering=1 << 16)
        buffered.write("buffered-marker")
        sys.stdout.write("stdout-marker")
        results = modernfit._replicates(per_replicate(lambda r: r), 10, 400)
        buffered.close()
        sys.stdout.flush()
        out = capfd.readouterr().out
        assert results == list(range(10))
        assert out.count("buffered-marker") == 1
        assert out.count("stdout-marker") == 1
        assert len(forked) == count - 1

    def test_every_chunk_is_claimed_once(self, workers):
        # 1,999 one-replicate chunks, claimed one at a time by up to three
        # workers on however many CPUs: a claim token read by two workers
        # at once, or lost, would run a chunk twice or skip it.
        count, forked = workers
        assert modernfit._replicates(per_replicate(lambda r: r), 2000, 1000) == list(range(2000))
        assert len(forked) == count - 1

    @pytest.mark.parametrize("fails", [True, False], ids=["failure", "no-failure"])
    def test_no_chunk_far_above_a_failure_starts(self, workers, tmp_path, fails):
        # 399 one-replicate chunks after replicate 0; replicate 20 raises at
        # once while the others take 2 ms. Every chunk below the failure
        # runs, none twice, and the workers still busy when it fails claim
        # no more than a few chunks above it.
        count, forked = workers
        path = tmp_path / "started"
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)

        def job(r):
            os.write(fd, f"{r}\n".encode())
            if fails and r == 20:
                raise InputError("replicate 20 is bad input")
            time.sleep(0.002)
            return r

        try:
            if fails:
                with pytest.raises(InputError, match=r"^replicate 20 is bad input$"):
                    modernfit._replicates(per_replicate(job), 400, 1000)
            else:
                assert modernfit._replicates(per_replicate(job), 400, 1000) == list(range(400))
        finally:
            os.close(fd)
        started = [int(line) for line in path.read_text().split()]
        assert len(started) == len(set(started))
        if fails:
            assert set(range(21)) <= set(started)
            assert max(started) <= 20 + 40
        else:
            assert sorted(started) == list(range(400))
        assert len(forked) == count - 1

    def test_chunks_alone_decide_whether_to_fork(self, workers):
        # However few levels the replicates hold, two chunks after replicate
        # 0 fork: at 333 levels a chunk holds 1000 // 333 = 3 replicates, so
        # replicates 1-5 make two chunks.
        count, forked = workers
        assert modernfit._replicates(per_replicate(lambda r: r), 6, 333) == list(range(6))
        assert len(forked) == min(count, 2) - 1
        # At 334 levels a chunk holds 2 replicates: replicates 1-2 are one
        # chunk, which runs in the caller.
        forked.clear()
        assert modernfit._replicates(per_replicate(lambda r: r), 3, 334) == list(range(3))
        assert forked == []
