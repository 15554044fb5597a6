"""Command-line surface: ingestion, fits, reports, simulation, plots.

Exit codes: 0 on success, 2 for malformed input or bad flag values, 3
for numeric or degenerate-fit failures. Machine-readable output is JSON
at full precision; text reports round the way the historical tables do
(percents to 2 decimals, exponents to 3, R^2 to 2, F to 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

from .errors import DegenerateFitError, InputError
from .freqdata import ingest_records, read_distribution, truncation_report, write_distribution
from .loglogfit import Denominator, FitResult, fit_historical, ols_loglog, to_percent_series
from .lotkamodel import PowerLawModel, sample
from .modernfit import bias_experiment, compare_methods, gof_bootstrap, mle_alpha, select_xmin
from .svgplot import PlotKind, PlotSpec, _sidecar_path, emit_plot

__all__ = ["build_parser", "run", "main"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr, exit 2."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message}\n")


def _denominator_arg(text: str):
    lowered = text.strip().lower()
    if lowered == "full":
        return Denominator.FULL
    if lowered == "truncated":
        return Denominator.TRUNCATED
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'full', 'truncated', or an integer, got {text!r}"
        ) from None


def _xmin_arg(text: str):
    if text.strip().lower() == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"xmin must be >= 1, got {value}")
    return value


def _cutoffs_arg(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one cutoff")
    return values


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_ingest(args) -> int:
    if _same_file(Path(args.out), args.records):
        raise InputError(f"{args.out} is the --records file; ingest would overwrite its input")
    dist = ingest_records(args.records, name=Path(args.out).stem)
    write_distribution(dist, args.out)
    print(
        f"{dist.total_works} papers -> {dist.total_authors} credited authors, "
        f"{dist.total_works} works",
        file=sys.stderr,
    )
    return 0


def _cmd_fit_loglog(args) -> int:
    dist = read_distribution(args.dist)
    if args.truncate is not None:
        fit = fit_historical(dist, args.truncate, args.denominator)
    else:
        fit = ols_loglog(to_percent_series(dist, args.denominator))
    _print_json(fit.to_dict())
    return 0


def _cmd_fit_mle(args) -> int:
    dist = read_distribution(args.dist)
    if args.xmin == "auto":
        result = select_xmin(dist)
    else:
        result = mle_alpha(dist, args.xmin)
    payload = result.to_dict()
    if args.bootstrap is not None:
        payload["p_value"] = gof_bootstrap(
            dist, result, args.bootstrap, args.seed, reselect_xmin=args.xmin == "auto"
        )
        payload["n_boot"] = args.bootstrap
        payload["seed"] = args.seed
    _print_json(payload)
    return 0


def _cmd_report_truncation(args) -> int:
    dist = read_distribution(args.dist)
    report = truncation_report(dist, args.cutoff)
    print(f"truncation at cutoff {args.cutoff} (max level {dist.max_level}):")
    print("range  pct_range  works  pct_works  authors  pct_authors")
    print(
        f"{report.removed_level_range}  {report.pct_range:.2f}%  "
        f"{report.removed_works}  {report.pct_works:.2f}%  "
        f"{report.removed_authors_from_denominator}  {report.pct_authors:.2f}%"
    )
    print(f"physically removed authors: {report.removed_authors_physical}")
    return 0


def _cmd_simulate(args) -> int:
    model = PowerLawModel(args.alpha, 1)
    dist = sample(model, args.authors, args.seed)
    write_distribution(dist, args.out)
    print(
        f"sampled {args.authors} authors (alpha={args.alpha:g}, seed={args.seed}) "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def _format_fit_text(fit: FitResult) -> str:
    f_text = f"{fit.f_stat:.1f}" if math.isfinite(fit.f_stat) else "inf"
    return (
        f"exponent {fit.exponent:.3f} (R^2 {fit.r_squared:.2f}, F {f_text}, "
        f"dof {fit.dof}, n {fit.n_points})"
    )


def _cmd_compare(args) -> int:
    dist = read_distribution(args.dist)
    report = compare_methods(dist, args.truncate)
    if args.json:
        _print_json(report.to_dict())
        return 0
    print(f"cutoff: {report.cutoff_used}")
    if report.historical is not None:
        print(f"historical: {_format_fit_text(report.historical)}")
    else:
        print("historical: failed (see notes)")
    if report.modern is not None:
        m = report.modern
        print(
            f"modern: alpha_hat {m.alpha_hat:.3f} at xmin {m.xmin} "
            f"(ks {m.ks:.4f}, n_tail {m.n_tail})"
        )
    else:
        print("modern: failed (see notes)")
    if report.divergence is not None:
        print(f"divergence: {report.divergence:.3f}")
    print(f"notes: {report.notes}")
    return 0


def _cmd_bias(args) -> int:
    table = bias_experiment(args.alpha, args.authors, args.cutoffs, args.replicates, args.seed)
    sys.stdout.write(table.to_text_rows())
    return 0


def _load_fit(path: str) -> FitResult:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the decoder's stack.
        raise InputError(f"{path}: not valid JSON ({exc})") from None
    try:
        fit = FitResult(
            slope=float(payload["slope"]),
            intercept=float(payload["intercept"]),
            exponent=float(payload["exponent"]),
            r_squared=float(payload["r_squared"]),
            f_stat=math.inf if payload.get("f_stat") is None else float(payload["f_stat"]),
            dof=int(payload["dof"]),
            n_points=int(payload["n_points"]),
            denominator=payload.get("denominator"),
            cutoff=payload.get("cutoff"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{path}: not a fit report ({exc})") from None
    for key in ("slope", "intercept", "exponent", "r_squared"):
        if not math.isfinite(getattr(fit, key)):
            raise InputError(f"{path}: not a fit report ({key} is {getattr(fit, key)})")
    return fit


def _same_file(path: Path, other: str) -> bool:
    try:
        return os.path.samefile(path, other)
    except OSError:  # path does not exist yet, so it is no input
        return False


def _cmd_plot(args) -> int:
    dist = read_distribution(args.dist)
    kind = PlotKind(args.kind)
    if kind is PlotKind.HISTOGRAM and args.fit is not None:
        raise InputError("--fit applies only to loglog plots")
    fit = _load_fit(args.fit) if args.fit is not None else None
    out = Path(args.out)
    for target in (out, _sidecar_path(out)):
        for flag, source in (("dist", args.dist), ("fit", args.fit)):
            if source is not None and _same_file(target, source):
                raise InputError(f"{target} is the --{flag} file; plot would overwrite its input")
    spec = PlotSpec(
        kind=kind,
        out_path=args.out,
        include_trendline=fit is not None,
        bin_width=args.bin_width,
    )
    svg_path, sidecar_path = emit_plot(dist, fit, spec)
    print(f"wrote {svg_path} and {sidecar_path}", file=sys.stderr)
    return 0


def _add_ingest(sub) -> None:
    p_ingest = sub.add_parser("ingest", help="build a distribution from author records")
    p_ingest.add_argument("--records", required=True, help="paper_id,position,author CSV")
    p_ingest.add_argument("--out", required=True, help="output level,count file")
    p_ingest.set_defaults(func=_cmd_ingest)


def _add_fit(sub) -> None:
    p_fit = sub.add_parser("fit", help="fit a power-law exponent")
    fit_sub = p_fit.add_subparsers(dest="mode", required=True)

    p_loglog = fit_sub.add_parser("loglog", help="historical least-squares on the log-log plot")
    p_loglog.add_argument("--dist", required=True)
    p_loglog.add_argument("--truncate", type=int, default=None, metavar="N")
    p_loglog.add_argument(
        "--denominator",
        type=_denominator_arg,
        default=Denominator.FULL,
        help="full (pre-truncation total), truncated, or an explicit integer",
    )
    p_loglog.add_argument("--json", action="store_true", help="output is always JSON")
    p_loglog.set_defaults(func=_cmd_fit_loglog)

    p_mle = fit_sub.add_parser("mle", help="discrete maximum-likelihood fit")
    p_mle.add_argument("--dist", required=True)
    p_mle.add_argument("--xmin", type=_xmin_arg, default="auto", help="'auto' or an integer")
    p_mle.add_argument("--bootstrap", type=int, default=None, metavar="N")
    p_mle.add_argument("--seed", type=int, default=0)
    p_mle.set_defaults(func=_cmd_fit_mle)


def _add_report(sub) -> None:
    p_report = sub.add_parser("report", help="text reports")
    report_sub = p_report.add_subparsers(dest="kind", required=True)
    p_trunc = report_sub.add_parser("truncation", help="what a right truncation removes")
    p_trunc.add_argument("--dist", required=True)
    p_trunc.add_argument("--cutoff", type=int, required=True)
    p_trunc.set_defaults(func=_cmd_report_truncation)


def _add_simulate(sub) -> None:
    p_sim = sub.add_parser("simulate", help="sample a synthetic population")
    p_sim.add_argument("--alpha", type=float, required=True)
    p_sim.add_argument("--authors", type=int, required=True)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)


def _add_compare(sub) -> None:
    p_cmp = sub.add_parser("compare", help="historical vs modern estimates")
    p_cmp.add_argument("--dist", required=True)
    p_cmp.add_argument("--truncate", type=int, required=True)
    p_cmp.add_argument("--json", action="store_true")
    p_cmp.set_defaults(func=_cmd_compare)


def _add_bias(sub) -> None:
    p_bias = sub.add_parser("bias", help="truncation bias experiment")
    p_bias.add_argument("--alpha", type=float, required=True)
    p_bias.add_argument("--authors", type=int, required=True)
    p_bias.add_argument("--cutoffs", type=_cutoffs_arg, required=True)
    p_bias.add_argument("--replicates", type=int, required=True)
    p_bias.add_argument("--seed", type=int, required=True)
    p_bias.set_defaults(func=_cmd_bias)


def _add_plot(sub) -> None:
    p_plot = sub.add_parser("plot", help="emit an SVG figure plus coordinate sidecar")
    p_plot.add_argument("kind", choices=["histogram", "loglog"])
    p_plot.add_argument("--dist", required=True)
    p_plot.add_argument("--fit", default=None, help="fit JSON for the trendline (loglog only)")
    p_plot.add_argument("--bin-width", type=int, default=1)
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=_cmd_plot)


# Each subcommand's parser builder, in the order --help lists them.
_COMMANDS = {
    "ingest": _add_ingest,
    "fit": _add_fit,
    "report": _add_report,
    "simulate": _add_simulate,
    "compare": _add_compare,
    "bias": _add_bias,
    "plot": _add_plot,
}


def _parser(commands) -> _Parser:
    """The top-level parser with the subcommands named in commands."""
    parser = _Parser(
        prog="lotkafit",
        description="Historical log-log and modern MLE power-law fitting for "
        "author productivity distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in commands:
        _COMMANDS[command](sub)
    return parser


def build_parser() -> argparse.ArgumentParser:
    return _parser(_COMMANDS)


def run(argv=None) -> int:
    """Run one command line (sys.argv[1:] by default); return its exit code.

    Only the named subcommand's parsers are built, which saves every
    command a few ms. Any other argv, such as --help, an unknown
    command or none, gets the full parser, so that its usage and errors
    list every subcommand.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
