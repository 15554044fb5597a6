"""Author-productivity power laws, fitted two ways.

The historical route: truncate the distribution on the right, express
author counts as percentages of the full author total, and fit a line to
the log-log plot by ordinary least squares. The modern route: discrete
maximum likelihood with a KS-selected lower cutoff and a bootstrap
goodness-of-fit test. Both sit on a shared frequency-of-frequency data
model and a zeta-normalized discrete power-law model.
"""

from .errors import DegenerateFitError, InputError, LotkafitError
from .freqdata import (
    AuthorRecord,
    FrequencyDistribution,
    HistogramBins,
    TruncationReport,
    bin_histogram,
    from_author_records,
    ingest_records,
    parse_distribution,
    parse_records,
    read_distribution,
    read_records,
    round_half_up,
    serialize_distribution,
    truncate_right,
    truncation_report,
    write_distribution,
)
from .loglogfit import (
    Denominator,
    FitResult,
    PercentSeries,
    fit_historical,
    ols_loglog,
    to_percent_series,
)
from .lotkamodel import (
    PowerLawModel,
    ccdf,
    expected_counts,
    hurwitz_zeta,
    predicted_fraction,
    sample,
)
from .modernfit import (
    BiasRow,
    BiasTable,
    ComparisonReport,
    MleResult,
    bias_experiment,
    compare_methods,
    gof_bootstrap,
    ks_distance,
    log_likelihood,
    mle_alpha,
    select_xmin,
)
from .svgplot import PlotKind, PlotSpec, emit_plot

__version__ = "0.1.0"

__all__ = [
    "AuthorRecord",
    "BiasRow",
    "BiasTable",
    "ComparisonReport",
    "DegenerateFitError",
    "Denominator",
    "FitResult",
    "FrequencyDistribution",
    "HistogramBins",
    "InputError",
    "LotkafitError",
    "MleResult",
    "PercentSeries",
    "PlotKind",
    "PlotSpec",
    "PowerLawModel",
    "TruncationReport",
    "bias_experiment",
    "bin_histogram",
    "ccdf",
    "compare_methods",
    "emit_plot",
    "expected_counts",
    "fit_historical",
    "from_author_records",
    "gof_bootstrap",
    "hurwitz_zeta",
    "ingest_records",
    "ks_distance",
    "log_likelihood",
    "mle_alpha",
    "ols_loglog",
    "parse_distribution",
    "parse_records",
    "predicted_fraction",
    "read_distribution",
    "read_records",
    "round_half_up",
    "sample",
    "select_xmin",
    "serialize_distribution",
    "to_percent_series",
    "truncate_right",
    "truncation_report",
    "write_distribution",
    "__version__",
]
