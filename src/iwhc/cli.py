"""Command line front end.

Subcommands: ``fit`` (MLE and intervals), ``bayes`` (expansion or importance
sampling estimates), ``censor`` (apply a scheme and list the observed data),
``gof`` (distance test against the fitted complete-sample MLE) and
``simulate`` (Monte Carlo study from a JSON config).

Data arguments name a bundled dataset (``flood``, ``guinea``) or a file of
whitespace-separated positive reals with ``#`` comments.  ``--big-r`` and
``--time`` define the censoring scheme; omitting both means complete data,
and omitting only one is an error.  Every stochastic command embeds its seed
in the report; the ``IWHC_SEED`` environment variable overrides the default
seed when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import datasets
from .censoring import HybridScheme, HybridSample, apply_scheme, reciprocals
from .distribution import IwParams, cdf
from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from .gof import ks_test
from .harness import StudyConfig, format_table, run_study, write_csv
from .lindley import GammaPriors, lindley_estimates
from .mle import SolverConfig, asymptotic_ci, fit_mle
from .posterior import bayes_is

REPORT_VERSION = 1
_DEFAULT_SEED = 0
_LOW_ESS_FRACTION = 0.05


def _seed(args) -> int:
    """``--seed``, else the IWHC_SEED environment variable, else the default."""
    seed = args.seed
    if seed is None:
        env = os.environ.get("IWHC_SEED")
        try:
            seed = int(env) if env else _DEFAULT_SEED
        except ValueError:
            raise DomainError(f"IWHC_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return seed


def _add_common(parser, scheme=True, seed=False):
    parser.add_argument("data", help="bundled dataset name (flood, guinea) or data file path")
    if scheme:
        parser.add_argument("--big-r", type=int, default=None, metavar="R",
                            help="failure budget of the censoring scheme")
        parser.add_argument("--time", type=float, default=None, metavar="T",
                            help="time budget of the censoring scheme")
    if seed:
        parser.add_argument("--seed", type=int, default=None,
                            help="RNG seed (default: IWHC_SEED env var, else 0)")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")


def _parse_prior(text: str) -> GammaPriors:
    parts = text.split(",")
    if len(parts) != 4:
        raise DomainError(f"--prior expects four comma-separated values, got {text!r}")
    return GammaPriors(*(float(v) for v in parts))


def _scheme_from_args(args, n: int) -> HybridScheme:
    if (args.big_r is None) != (args.time is None):
        raise DomainError("a Type-I hybrid scheme needs both --big-r and --time")
    if args.big_r is None:
        return HybridScheme(n=n, R=n, T=math.inf)
    return HybridScheme(n=n, R=args.big_r, T=args.time)


def _input_digest(data: np.ndarray, hs: HybridSample) -> dict:
    return {
        "count": int(data.size),
        "min": float(data.min()),
        "max": float(data.max()),
        "censoring": {
            "n": hs.scheme.n,
            "R": hs.scheme.R,
            "T": hs.scheme.T if math.isfinite(hs.scheme.T) else None,
            "r": hs.r,
            "u": hs.u,
        },
    }


def _interval(ci) -> list:
    return [ci.lower, ci.upper]


def _emit(report: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        for warning in report.get("warnings", []):
            print(f"warning: {warning}")


def cmd_fit(args) -> int:
    data = datasets.resolve(args.data)
    scheme = _scheme_from_args(args, data.size)
    hs = apply_scheme(data, scheme)
    rs = reciprocals(hs)
    fit = fit_mle(rs, SolverConfig())
    ci_a, ci_l, ci_t = asymptotic_ci(fit, args.level)
    report = {
        "report_version": REPORT_VERSION,
        "command": "fit",
        "input": _input_digest(data, hs),
        "method": {
            "solver": "damped-newton-log-scale",
            "tol": SolverConfig().tol,
            "max_iter": SolverConfig().max_iter,
            "theta_ci": "delta-method on lam**(-1/alpha)",
            "level": args.level,
        },
        "results": {
            "alpha": fit.alpha_hat,
            "theta": fit.theta_hat,
            "lambda": fit.lam_hat,
            "loglik": fit.loglik,
            "iterations": fit.iterations,
            "grad_norm": fit.grad_norm,
            "converged": fit.converged,
            "ci_alpha": _interval(ci_a),
            "ci_lambda": _interval(ci_l),
            "ci_theta": _interval(ci_t),
        },
        "warnings": [],
    }
    _emit(report, args.json, [
        f"observed r={hs.r} of n={scheme.n}, censoring terminus u={hs.u:g}",
        f"MLE: alpha={fit.alpha_hat:.4f}  theta={fit.theta_hat:.4f}  "
        f"lambda={fit.lam_hat:.6g}  (loglik {fit.loglik:.4f}, {fit.iterations} iterations)",
        f"{args.level:.0%} CI alpha : ({ci_a.lower:.4f}, {ci_a.upper:.4f})",
        f"{args.level:.0%} CI lambda: ({ci_l.lower:.6g}, {ci_l.upper:.6g})",
        f"{args.level:.0%} CI theta : ({ci_t.lower:.4f}, {ci_t.upper:.4f})",
    ])
    return 0


def cmd_bayes(args) -> int:
    data = datasets.resolve(args.data)
    scheme = _scheme_from_args(args, data.size)
    hs = apply_scheme(data, scheme)
    rs = reciprocals(hs)
    priors = _parse_prior(args.prior)
    seed = _seed(args)
    warnings: list[str] = []
    if args.method == "lindley":
        fit = fit_mle(rs, SolverConfig())
        est = lindley_estimates(fit, priors, rs, curvature=not args.debug_zero_curvature)
        method_meta = {
            "estimator": "lindley-expansion",
            "prior": priors.as_tuple(),
            "curvature": not args.debug_zero_curvature,
        }
        results = {"alpha": est.alpha_L, "lambda": est.lambda_L, "theta": est.theta_L,
                   "mle_alpha": fit.alpha_hat, "mle_lambda": fit.lam_hat}
        lines = [
            f"observed r={hs.r} of n={scheme.n}, censoring terminus u={hs.u:g}",
            f"expansion estimate: alpha={est.alpha_L:.4f}  theta={est.theta_L:.4f}  "
            f"lambda={est.lambda_L:.6g}",
        ]
    else:
        res = bayes_is(rs, priors, args.draws, seed, level=args.level)
        ess = res.draws.ess
        if ess < _LOW_ESS_FRACTION * args.draws:
            warnings.append(
                f"effective sample size {ess:.1f} of {args.draws} draws; "
                "posterior summaries are noisy under heavy censoring"
            )
        method_meta = {
            "estimator": "importance-sampling",
            "prior": priors.as_tuple(),
            "draws": args.draws,
            "seed": seed,
            "level": args.level,
            "acceptance_ratio": res.draws.acceptance_ratio,
            "ess": ess,
        }
        results = {
            "alpha": {"mean": res.alpha.mean, "variance": res.alpha.variance,
                      "hpd": _interval(res.alpha.hpd)},
            "lambda": {"mean": res.lam.mean, "variance": res.lam.variance,
                       "hpd": _interval(res.lam.hpd)},
            "theta": {"mean": res.theta.mean, "variance": res.theta.variance,
                      "hpd": _interval(res.theta.hpd)},
        }
        lines = [
            f"observed r={hs.r} of n={scheme.n}, censoring terminus u={hs.u:g}",
            f"posterior means (M={args.draws}, seed={seed}): "
            f"alpha={res.alpha.mean:.4f}  theta={res.theta.mean:.4f}  "
            f"lambda={res.lam.mean:.6g}",
            f"{args.level:.0%} HPD alpha : ({res.alpha.hpd.lower:.4f}, {res.alpha.hpd.upper:.4f})",
            f"{args.level:.0%} HPD lambda: ({res.lam.hpd.lower:.6g}, {res.lam.hpd.upper:.6g})",
            f"{args.level:.0%} HPD theta : ({res.theta.hpd.lower:.4f}, {res.theta.hpd.upper:.4f})",
            f"effective sample size {ess:.1f}, acceptance ratio "
            f"{res.draws.acceptance_ratio:.3f}",
        ]
    report = {
        "report_version": REPORT_VERSION,
        "command": "bayes",
        "input": _input_digest(data, hs),
        "method": method_meta,
        "results": results,
        "warnings": warnings,
    }
    _emit(report, args.json, lines)
    return 0


def cmd_censor(args) -> int:
    data = datasets.resolve(args.data)
    scheme = _scheme_from_args(args, data.size)
    hs = apply_scheme(data, scheme)
    report = {
        "report_version": REPORT_VERSION,
        "command": "censor",
        "input": _input_digest(data, hs),
        "method": {},
        "results": {"times": [float(t) for t in hs.times], "r": hs.r, "u": hs.u},
        "warnings": [],
    }
    lines = [f"observed r={hs.r} of n={scheme.n}, censoring terminus u={hs.u:g}",
             " ".join(f"{t:g}" for t in hs.times)]
    _emit(report, args.json, lines)
    return 0


def cmd_gof(args) -> int:
    data = datasets.resolve(args.data)
    scheme = HybridScheme(n=data.size, R=data.size, T=math.inf)
    hs = apply_scheme(data, scheme)
    fit = fit_mle(reciprocals(hs), SolverConfig())
    params = IwParams(fit.alpha_hat, fit.theta_hat)
    seed = _seed(args)
    result = ks_test(data, params, sims=args.sims, seed=seed)
    report = {
        "report_version": REPORT_VERSION,
        "command": "gof",
        "input": _input_digest(data, hs),
        "method": {
            "statistic": "max_i |i/n - F(t_(i))|",
            "p_value": "seeded Monte Carlo null of the statistic",
            "sims": args.sims,
            "seed": seed,
            "fitted": {"alpha": fit.alpha_hat, "theta": fit.theta_hat},
        },
        "results": {"statistic": result.statistic, "p_value": result.p_value, "n": result.n},
        "warnings": [],
    }
    lines = [
        f"fitted complete-sample MLE: alpha={fit.alpha_hat:.4f} theta={fit.theta_hat:.4f}",
        f"distance D={result.statistic:.4f}   p-value={result.p_value:.4f}   (n={result.n})",
    ]
    if args.curve:
        srt = np.sort(data)
        ranks = np.arange(1, srt.size + 1) / srt.size
        fitted = cdf(srt, params)
        report["results"]["curve"] = [
            {"x": float(x), "ecdf": float(e), "fitted": float(f)}
            for x, e, f in zip(srt, ranks, fitted)
        ]
        lines.append(f"{'x':>12s} {'ecdf':>10s} {'fitted':>10s}")
        lines += [f"{x:12.6g} {e:10.4f} {f:10.4f}" for x, e, f in zip(srt, ranks, fitted)]
    _emit(report, args.json, lines)
    return 0


def cmd_simulate(args) -> int:
    config = StudyConfig.from_json(args.config)
    summary = run_study(config)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "summary.csv")
    table_path = os.path.join(out_dir, "summary.txt")
    write_csv(summary, csv_path)
    table = format_table(summary)
    with open(table_path, "w") as handle:
        handle.write(table)
    if args.json:
        rows = []
        for row in summary.rows:
            entry = row.__dict__.copy()
            entry["prior"] = list(row.prior) if row.prior is not None else None
            rows.append(entry)
        print(json.dumps({"report_version": REPORT_VERSION, "command": "simulate",
                          "results": rows, "files": [csv_path, table_path],
                          "warnings": []}, indent=2, sort_keys=True))
    else:
        print(table)
        print(f"wrote {csv_path} and {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwhc",
        description="Inverse Weibull estimation from Type-I hybrid censored data",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_fit = sub.add_parser("fit", help="maximum likelihood fit with asymptotic intervals")
    _add_common(p_fit)
    p_fit.add_argument("--level", type=float, default=0.95, help="interval level")
    p_fit.set_defaults(func=cmd_fit)

    p_bayes = sub.add_parser("bayes", help="Bayes estimates under gamma priors")
    _add_common(p_bayes, seed=True)
    p_bayes.add_argument("--method", choices=("lindley", "is"), required=True)
    p_bayes.add_argument("--prior", default="0,0,0,0", metavar="a,b,c,d",
                         help="gamma prior hyperparameters (default improper 0,0,0,0)")
    p_bayes.add_argument("--draws", type=int, default=10_000,
                         help="importance-sampling draws (default 10000)")
    p_bayes.add_argument("--level", type=float, default=0.95, help="credible level")
    p_bayes.add_argument("--debug-zero-curvature", action="store_true",
                         help=argparse.SUPPRESS)
    p_bayes.set_defaults(func=cmd_bayes)

    p_censor = sub.add_parser("censor", help="apply a censoring scheme and list the sample")
    _add_common(p_censor)
    p_censor.set_defaults(func=cmd_censor)

    p_gof = sub.add_parser("gof", help="distance test of the complete-sample fit")
    _add_common(p_gof, scheme=False, seed=True)
    p_gof.add_argument("--sims", type=int, default=100_000,
                       help="Monte Carlo draws for the p-value")
    p_gof.add_argument("--curve", action="store_true",
                       help="also emit (x, ecdf, fitted) columns")
    p_gof.set_defaults(func=cmd_gof)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo study from a JSON config")
    p_sim.add_argument("config", help="StudyConfig JSON file")
    p_sim.add_argument("--out-dir", default=".", help="output directory")
    p_sim.add_argument("--json", action="store_true", help="emit rows as JSON")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, InsufficientDataError, DegenerateWeightsError,
            FileNotFoundError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
