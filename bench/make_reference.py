#!/usr/bin/env python3
"""Record ``bench/reference.json``: the expected outputs the workloads check.

    python3 bench/make_reference.py            # about 12 minutes on one core

Run it only when the expected outputs themselves change, and say so in the
change.  It records:

- the deterministic ``cli_session`` outputs (MLE with its intervals, Lindley
  estimates, censored sample, gof distance) as the CLI prints them, without
  the solver's iteration count and final gradient norm;
- the gof p-values from a 2,000,000-draw null simulation;
- the flat-prior posterior mean, sd and 95% highest-density interval of
  alpha, lambda and theta for both censored datasets, by quadrature on a
  1,500 x 1,500 grid in (log alpha, log lambda), independent of the package's
  importance sampler;
- the errors of the package's importance sampler on those commands: over
  ``SAMPLER_RUNS`` seeds no benchmark run uses, the number of runs the
  program reported failed, and over the others the least and median ESS and
  the 90% quantile and largest absolute deviation of each mean and HPD end
  from the quadrature value;
- the expected study average estimates with their standard errors, from
  ``run_study`` runs much longer than a benchmark run, at a base seed no
  benchmark run uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from iwhc import HybridScheme, apply_scheme, cli, fit_mle, reciprocals, run_study  # noqa: E402
from iwhc.datasets import load_bundled  # noqa: E402
from iwhc.gof import ks_test  # noqa: E402
from iwhc.distribution import IwParams  # noqa: E402

REFERENCE_SEED = 987_654_321_987   # never a benchmark base seed (seed * 100000 + batch)
SAMPLER_SEED = 3_000_000_000       # CLI seeds SAMPLER_SEED + k; benchmark seeds < 30000 stay below
GOF_REFERENCE_SIMS = 2_000_000
STUDY_REPLICATES = {"study_bayes": 600, "study_mle": 4000}
GRID = 1500
SAMPLER_RUNS = 400
SAMPLER_QUANTILE = 0.9
# solver diagnostics, not estimates: a valid change of the solver may move them
SOLVER_DIAGNOSTICS = ("iterations", "grad_norm")
LEVEL = 0.95


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"reference command failed: {argv}")
    return json.loads(out.getvalue())


def shortest_interval(values, masses, level=LEVEL):
    """Shortest interval holding ``level`` of the mass of a discrete law."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    cum = np.cumsum(masses[order])
    cum /= cum[-1]
    before = np.concatenate([[0.0], cum[:-1]])
    hi = np.searchsorted(cum, before + level, side="left")
    ok = hi < v.size
    lengths = np.where(ok, v[np.minimum(hi, v.size - 1)] - v, np.inf)
    j = int(np.argmin(lengths))
    return [float(v[j]), float(v[hi[j]])]


def posterior_reference(data_name, R, T):
    """Flat-prior posterior summaries of (alpha, lambda, theta) by quadrature."""
    data = load_bundled(data_name)
    rs = reciprocals(apply_scheme(data, HybridScheme(n=data.size, R=R, T=T)))
    fit = fit_mle(rs)
    sd_la = math.sqrt(fit.cov.v11) / fit.alpha_hat
    sd_ll = math.sqrt(fit.cov.v22) / fit.lam_hat
    la = np.linspace(math.log(fit.alpha_hat) - 12 * sd_la,
                     math.log(fit.alpha_hat) + 12 * sd_la, GRID)
    ll = np.linspace(math.log(fit.lam_hat) - 12 * sd_ll,
                     math.log(fit.lam_hat) + 12 * sd_ll, GRID)
    alpha = np.exp(la)[:, None]
    lam = np.exp(ll)[None, :]
    x, r, n, u = rs.x, rs.r, rs.n, rs.u
    S = (x[None, :] ** np.exp(la)[:, None]).sum(axis=1)[:, None]
    # flat prior 1/(alpha*lam) times the Jacobian alpha*lam of the log grid
    logp = (r * np.log(alpha) + r * np.log(lam) - lam * S
            + (alpha + 1.0) * np.log(x).sum())
    if n > r:
        q = lam * u ** (-alpha)
        logp = logp + (n - r) * np.log(-np.expm1(-q))
    w = np.exp(logp - logp.max())
    edge = max(w[0].max(), w[-1].max(), w[:, 0].max(), w[:, -1].max())
    if edge > 1e-12:
        raise SystemExit(f"{data_name}: grid too narrow (edge mass {edge:.2e})")
    w /= w.sum()
    out = {}
    grids = {
        "alpha": (np.exp(la), w.sum(axis=1)),
        "lambda": (np.exp(ll), w.sum(axis=0)),
        "theta": ((lam ** (-1.0 / alpha)).ravel(), w.ravel()),
    }
    for name, (values, masses) in grids.items():
        mean = float((values * masses).sum())
        sd = math.sqrt(float((((values - mean) ** 2) * masses).sum()))
        out[name] = {"mean": mean, "sd": sd, "hpd": shortest_interval(values, masses)}
    return out


def sampler_reference(argv, posterior):
    """Errors and failure rate of one ``bayes --method is`` command over fresh seeds.

    For every mean and HPD end, the ``SAMPLER_QUANTILE`` quantile and the
    largest of its absolute deviations from the quadrature value, and how
    many runs exceeded that quantile.
    """
    at = argv.index("--seed") + 1
    ess, deviations, failures = [], {name: [] for name in posterior}, 0
    for k in range(SAMPLER_RUNS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv[:at] + [str(SAMPLER_SEED + k)] + argv[at + 1:])
        if code != 0:       # a weight collapse the program reports
            failures += 1
            continue
        report = json.loads(out.getvalue())
        ess.append(report["method"]["ess"])
        for name, dev in deviations.items():
            got, want = report["results"][name], posterior[name]
            pairs = [(got["mean"], want["mean"])] + list(zip(got["hpd"], want["hpd"]))
            dev.append([abs(value - ref) for value, ref in pairs])
    stats = {}
    for name, dev in deviations.items():
        dev = np.asarray(dev)
        quantile = np.quantile(dev, SAMPLER_QUANTILE, axis=0)
        stats[name] = {"quantile": quantile.tolist(),
                       "exceed": (dev > quantile).sum(axis=0).tolist(),
                       "max": dev.max(axis=0).tolist()}
    return {"runs": SAMPLER_RUNS, "failures": failures, "ess_min": min(ess),
            "ess_median": float(np.median(ess)), "quantile": SAMPLER_QUANTILE,
            "deviation": stats}


def cli_reference():
    reference = {}
    censored = {data: (R, T) for data, R, T in workloads.CLI_DATA}
    for _cls, argv in workloads.cli_commands(seed=0):
        key = workloads.command_key(argv)
        if argv[0] == "bayes" and "is" in argv:
            R, T = censored[argv[1]]
            posterior = posterior_reference(argv[1], R, T)
            reference[key] = {"posterior": posterior,
                              "sampler": sampler_reference(argv, posterior)}
        elif argv[0] == "gof":
            report = run_cli(argv)
            fitted = report["method"]["fitted"]
            big = ks_test(load_bundled(argv[1]), IwParams(fitted["alpha"], fitted["theta"]),
                          sims=GOF_REFERENCE_SIMS, seed=REFERENCE_SEED % 2**32)
            reference[key] = {"statistic": report["results"]["statistic"],
                              "p_value": big.p_value, "sims": GOF_REFERENCE_SIMS}
        else:
            results = run_cli(argv)["results"]
            for diagnostic in SOLVER_DIAGNOSTICS:
                results.pop(diagnostic, None)
            reference[key] = {"results": results}
    return reference


def study_reference(name):
    summary = run_study(workloads.study_config(name, REFERENCE_SEED, STUDY_REPLICATES[name]))
    out = {}
    for row in summary.rows:
        key = workloads.study_key((row.n, row.T, row.R), row.method, row.prior, row.parameter)
        out[key] = {"mean": row.average_estimate, "se": row.se_average,
                    "replicates": row.replicates_used, "failures": row.failures}
    return out


def main() -> int:
    start = time.perf_counter()
    reference = {"cli": cli_reference(), "study": {}}
    print(f"cli references in {time.perf_counter() - start:.1f} s", flush=True)
    for name in workloads.STUDIES:
        reference["study"][name] = study_reference(name)
        print(f"{name} references in {time.perf_counter() - start:.1f} s", flush=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
