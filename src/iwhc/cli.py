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
import functools
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import datasets
from .errors import (
    ConvergenceError,
    DegenerateWeightsError,
    DomainError,
    InsufficientDataError,
    NumericError,
)
from .gof import ks_test

# Each command imports the modules it runs when it is called, so that start-up
# and the quick commands never load the samplers or the study harness.
if TYPE_CHECKING:
    from .censoring import HybridSample
    from .lindley import GammaPriors

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
    from .lindley import GammaPriors

    parts = text.split(",")
    try:
        values = [float(v) for v in parts]
    except ValueError:
        values = []
    if len(values) != 4:
        raise DomainError(f"--prior expects four comma-separated numbers, got {text!r}")
    return GammaPriors(*values)


def _observed(args, complete: bool = False) -> tuple:
    """The data and its sample under the ``--big-r``/``--time`` scheme, or
    complete when ``complete`` is set or neither flag is given."""
    from .censoring import HybridScheme, apply_scheme

    data = datasets.resolve(args.data)
    n = data.size
    if complete or (args.big_r is None and args.time is None):
        scheme = HybridScheme(n=n, R=n, T=math.inf)
    elif args.big_r is None or args.time is None:
        raise DomainError("a Type-I hybrid scheme needs both --big-r and --time")
    else:
        scheme = HybridScheme(n=n, R=args.big_r, T=args.time)
    return data, apply_scheme(data, scheme)


def _observed_line(hs: HybridSample) -> str:
    return f"observed r={hs.r} of n={hs.n}, censoring terminus u={hs.u:g}"


def _interval_lines(kind: str, level: float, rows) -> list:
    """One ``kind`` (CI or HPD) line for each of the alpha, lambda and theta
    intervals in ``rows``."""
    names = (("alpha ", ".4f"), ("lambda", ".6g"), ("theta ", ".4f"))
    return [f"{level:.0%} {kind} {name}: ({ci.lower:{fmt}}, {ci.upper:{fmt}})"
            for (name, fmt), ci in zip(names, rows)]


def _report(args, data, hs: HybridSample, method: dict, results: dict, lines,
            warnings=()) -> int:
    """Prints the ``args.cmd`` report: JSON with ``--json``, else ``lines``
    and the warnings.  Returns the exit code 0."""
    if args.json:
        scheme = hs.scheme
        digest = {"count": int(data.size), "min": float(data.min()), "max": float(data.max()),
                  "censoring": {"n": scheme.n, "R": scheme.R,
                                "T": scheme.T if math.isfinite(scheme.T) else None,
                                "r": hs.r, "u": hs.u}}
        print(json.dumps({"report_version": REPORT_VERSION, "command": args.cmd,
                          "input": digest, "method": method, "results": results,
                          "warnings": list(warnings)}, indent=2, sort_keys=True))
    else:
        print("\n".join([*lines, *(f"warning: {w}" for w in warnings)]))
    return 0


def cmd_fit(args) -> int:
    from .censoring import reciprocals
    from .mle import _MAX_ITER, _TOL, asymptotic_ci, fit_mle

    data, hs = _observed(args)
    fit = fit_mle(reciprocals(hs))
    cis = asymptotic_ci(fit, args.level)
    method = {
        "solver": "damped-newton-log-scale",
        "tol": _TOL,
        "max_iter": _MAX_ITER,
        "theta_ci": "delta-method on lam**(-1/alpha)",
        "level": args.level,
    }
    results = {
        "alpha": fit.alpha_hat,
        "theta": fit.theta_hat,
        "lambda": fit.lam_hat,
        "loglik": fit.loglik,
        "iterations": fit.iterations,
        "grad_norm": fit.grad_norm,
        "converged": fit.converged,
    }
    for name, ci in zip(("alpha", "lambda", "theta"), cis):
        results[f"ci_{name}"] = [ci.lower, ci.upper]
    return _report(args, data, hs, method, results, [
        _observed_line(hs),
        f"MLE: alpha={fit.alpha_hat:.4f}  theta={fit.theta_hat:.4f}  "
        f"lambda={fit.lam_hat:.6g}  (loglik {fit.loglik:.4f}, {fit.iterations} iterations)",
        *_interval_lines("CI", args.level, cis),
    ])


def cmd_bayes(args) -> int:
    from .censoring import reciprocals

    data, hs = _observed(args)
    rs = reciprocals(hs)
    priors = _parse_prior(args.prior)
    seed = _seed(args)
    if args.method == "lindley":
        from .lindley import lindley_estimates
        from .mle import fit_mle

        fit = fit_mle(rs)
        est = lindley_estimates(fit, priors, rs)
        method = {"estimator": "lindley-expansion", "prior": priors.as_tuple()}
        results = {"alpha": est.alpha_L, "lambda": est.lambda_L, "theta": est.theta_L,
                   "mle_alpha": fit.alpha_hat, "mle_lambda": fit.lam_hat}
        return _report(args, data, hs, method, results, [
            _observed_line(hs),
            f"expansion estimate: alpha={est.alpha_L:.4f}  theta={est.theta_L:.4f}  "
            f"lambda={est.lambda_L:.6g}",
        ])
    from .posterior import bayes_is

    res = bayes_is(rs, priors, args.draws, seed, level=args.level)
    ess = res.draws.ess
    warnings = []
    if ess < _LOW_ESS_FRACTION * args.draws:
        warnings.append(f"effective sample size {ess:.1f} of {args.draws} draws; "
                        "posterior summaries are noisy under heavy censoring")
    method = {
        "estimator": "importance-sampling",
        "prior": priors.as_tuple(),
        "draws": args.draws,
        "seed": seed,
        "level": args.level,
        "acceptance_ratio": res.draws.acceptance_ratio,
        "ess": ess,
    }
    ests = (res.alpha, res.lam, res.theta)
    results = {name: {"mean": est.mean, "variance": est.variance,
                      "hpd": [est.hpd.lower, est.hpd.upper]}
               for name, est in zip(("alpha", "lambda", "theta"), ests)}
    return _report(args, data, hs, method, results, [
        _observed_line(hs),
        f"posterior means (M={args.draws}, seed={seed}): "
        f"alpha={res.alpha.mean:.4f}  theta={res.theta.mean:.4f}  lambda={res.lam.mean:.6g}",
        *_interval_lines("HPD", args.level, [est.hpd for est in ests]),
        f"effective sample size {ess:.1f}, acceptance ratio {res.draws.acceptance_ratio:.3f}",
    ], warnings)


def cmd_censor(args) -> int:
    data, hs = _observed(args)
    results = {"times": [float(t) for t in hs.times], "r": hs.r, "u": hs.u}
    return _report(args, data, hs, {}, results,
                   [_observed_line(hs), " ".join(f"{t:g}" for t in hs.times)])


def cmd_gof(args) -> int:
    from .censoring import reciprocals
    from .distribution import IwParams, cdf
    from .mle import fit_mle

    data, hs = _observed(args, complete=True)
    fit = fit_mle(reciprocals(hs))
    params = IwParams(fit.alpha_hat, fit.theta_hat)
    seed = _seed(args)
    result = ks_test(data, params, sims=args.sims, seed=seed)
    method = {
        "statistic": "max_i |i/n - F(t_(i))|",
        "p_value": "seeded Monte Carlo null of the statistic",
        "sims": args.sims,
        "seed": seed,
        "fitted": {"alpha": fit.alpha_hat, "theta": fit.theta_hat},
    }
    results = {"statistic": result.statistic, "p_value": result.p_value, "n": result.n}
    lines = [
        f"fitted complete-sample MLE: alpha={fit.alpha_hat:.4f} theta={fit.theta_hat:.4f}",
        f"distance D={result.statistic:.4f}   p-value={result.p_value:.4f}   (n={result.n})",
    ]
    if args.curve:
        srt = np.sort(data)
        ranks = np.arange(1, srt.size + 1) / srt.size
        fitted = cdf(srt, params)
        results["curve"] = [{"x": float(x), "ecdf": float(e), "fitted": float(f)}
                            for x, e, f in zip(srt, ranks, fitted)]
        lines.append(f"{'x':>12s} {'ecdf':>10s} {'fitted':>10s}")
        lines += [f"{x:12.6g} {e:10.4f} {f:10.4f}" for x, e, f in zip(srt, ranks, fitted)]
    return _report(args, data, hs, method, results, lines)


def cmd_simulate(args) -> int:
    from .harness import StudyConfig, format_table, run_study, write_csv

    config = StudyConfig.from_json(args.config)
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)     # before the study, which may take long
    summary = run_study(config)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in this process shares."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, InsufficientDataError, DegenerateWeightsError,
            OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
