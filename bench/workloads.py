"""The three benchmark workloads and the checks on their outputs.

Every workload is a closed loop driven by ``run.py``: ``call(i)`` makes one
call into the package and returns its output, ``record(i, output)`` checks
and keeps it outside the timed region, and ``summary()`` returns the counts
of operations attempted and failed.  Inputs come only from the seed.

- ``study_bayes``: ``run_study`` on the C4 Bayes configuration (lindley and
  importance sampling under two priors, M=1000 draws).  Nearly all of its
  time is ``posterior.sample_g2``; no input repeats.
- ``study_mle``: ``run_study`` on the four C4 MLE cells with mle and lindley
  under both priors.  ``posterior`` is never called, so it bypasses every
  posterior optimisation.
- ``cli_session``: a fixed command mix through ``iwhc.cli.main`` in process:
  fit, censor, bayes (lindley and importance sampling at 10,000 draws) and
  gof on both bundled datasets.  The same argument lists repeat every round,
  except the importance-sampling seed.

Checks.  Deterministic outputs (MLE, Lindley estimates, censored sample, gof
distance) must equal the references recorded in ``reference.json`` to a
relative 1e-7.  Stochastic outputs must lie within Monte Carlo bounds:

- study average estimates within ``Z`` combined standard errors (the run's
  own and the reference's) of the reference expectation;
- each importance-sampling report within ``IS_MAX_FACTOR`` times the largest
  deviation of the sampler's reference runs from the quadrature posterior,
  with an ESS no lower than ``ESS_FLOOR`` of their least;
- the gof p-value within ``Z`` binomial standard errors.

Counts pooled over the run must not be improbable at the reference rate
(``check_rate``): the failures the program reports itself (run_study's
failed fits, importance-sampling commands that exit with an error), and the
importance-sampling reports beyond the reference quantile of each deviation.
A (cell, method, prior) or a command that fails a pooled check, or a study
group with fewer than two estimates, fails all its operations.  Each
workload also reports its largest deviation as a share of its bound
(``check_ratio_max``).  A change of the seeded random streams passes; a
wrong sampler fails its operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from iwhc import GammaPriors, StudyConfig, cli, harness

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Monte Carlo bounds.  Study averages, failure counts and the gof p-value
# are sums of independent draws, so Z is a normal-theory bound in standard
# errors.  Importance-sampling errors have heavy tails where the weights
# collapse, so their bounds come from the sampler's reference runs.
Z = 5.0
IS_MAX_FACTOR = 3.0   # times the largest deviation of the reference runs
ESS_FLOOR = 0.5       # times the least ESS of the reference runs
FAIL_TAIL_P = 1e-6    # counts: one-sided tail probability
REL_TOL = 1e-7        # deterministic outputs
TRUE_ALPHA, TRUE_LAMBDA = 2.0, 1.0
PRIORS = ((0.0, 0.0, 0.0, 0.0), (2.0, 1.0, 1.0, 1.0))
SEED_STRIDE = 100_000   # study batch or CLI round b of seed s uses seed s*stride+b

STUDIES = {
    "study_bayes": {"cells": ((30, 1.5, 20), (30, 1.5, 30)),
                    "methods": ("lindley", "is"), "draws": 1000, "reps_per_call": 1},
    "study_mle": {"cells": ((30, 1.5, 20), (30, 1.5, 30), (50, 1.5, 35), (50, 2.5, 50)),
                  "methods": ("mle", "lindley"), "draws": 1000, "reps_per_call": 100},
}

# (dataset, R, T) of the censored commands of cli_session
CLI_DATA = (("flood", 18, 0.5), ("guinea", 50, 90.0))
CLI_IS_DRAWS = 10_000
CLI_GOF_SIMS = 100_000


def study_config(name: str, base_seed: int, replicates: int) -> StudyConfig:
    spec = STUDIES[name]
    return StudyConfig(
        true_alpha=TRUE_ALPHA, true_lambda=TRUE_LAMBDA, cells=spec["cells"],
        priors=tuple(GammaPriors(*p) for p in PRIORS), replicates=replicates,
        draws=spec["draws"], base_seed=base_seed, methods=spec["methods"])


def fit_group(cell, method: str, prior) -> str:
    """Key of one (cell, method, prior): the fits of one replicate loop."""
    n, T, R = cell
    prior_tag = "-" if prior is None else ",".join(f"{v:g}" for v in prior)
    return f"({n},{T:g},{R})|{method}|{prior_tag}"


def study_key(cell, method: str, prior, parameter: str) -> str:
    return f"{fit_group(cell, method, prior)}|{parameter}"


def cli_commands(seed: int, round_: int = 0) -> list[tuple[str, list[str]]]:
    """The fixed mix of one cli_session round, as (class, argv) pairs.

    Every argument list repeats each round except the importance-sampling
    seed, which is fresh each round so that its checks see many samples.
    """
    commands = []
    for data, R, T in CLI_DATA:
        scheme = ["--big-r", str(R), "--time", f"{T:g}"]
        commands += [
            ("quick", ["fit", data, "--json"]),
            ("quick", ["fit", data, *scheme, "--json"]),
            ("quick", ["censor", data, *scheme, "--json"]),
            ("quick", ["bayes", data, *scheme, "--method", "lindley", "--json"]),
            ("bayes_is", ["bayes", data, *scheme, "--method", "is", "--draws", str(CLI_IS_DRAWS),
                          "--seed", str(seed * SEED_STRIDE + round_), "--json"]),
            ("gof", ["gof", data, "--sims", str(CLI_GOF_SIMS), "--seed", str(seed), "--json"]),
        ]
    return commands


def command_key(argv: list[str]) -> str:
    """Reference key of a command: its argv without the seed."""
    out, skip = [], False
    for token in argv:
        if skip:
            skip = False
        elif token == "--seed":
            skip = True
        else:
            out.append(token)
    return " ".join(out)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-300)


def _flatten(value, prefix=""):
    """Leaves of nested dicts/lists as (path, number) pairs."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def check_deterministic(got: dict, want: dict) -> list[str]:
    """Mismatches between two result dicts, compared leaf by leaf."""
    got_leaves = dict(_flatten(got))
    problems = []
    for path, value in _flatten(want):
        other = got_leaves.get(path)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            if other != value:
                problems.append(f"{path}: {other!r} != {value!r}")
        elif not isinstance(other, (int, float)) or not _close(float(other), float(value)):
            problems.append(f"{path}: {other!r} != {value!r}")
    return problems


def _bound(label: str, got: float, want: float, bound: float, problems: list) -> float:
    """Record a problem when |got - want| exceeds ``bound``; return that ratio."""
    ratio = abs(got - want) / bound if bound > 0 else math.inf
    if not ratio <= 1.0:
        problems.append(f"{label} {got:.6g} vs {want:.6g} (bound {bound:.3g})")
    return ratio


def check_is(results: dict, ess: float, want: dict) -> tuple[list[str], float, list[bool]]:
    """One importance-sampling report against the reference posterior.

    Every mean and HPD end must lie within ``IS_MAX_FACTOR`` times the
    largest deviation the sampler's reference runs showed, and the ESS must
    be at least ``ESS_FLOOR`` of their least.  Both are fixed by the
    reference, so a run whose weights collapse cannot widen them.  Also
    returns which deviations exceed the reference quantile, which the
    workload pools over the run.
    """
    problems: list[str] = []
    sampler = want["sampler"]
    floor = ESS_FLOOR * sampler["ess_min"]
    worst = floor / ess if ess > 0 else math.inf
    if not worst <= 1.0:
        problems.append(f"ESS {ess:.4g} below {floor:.4g} ({ESS_FLOOR:g} of the least of "
                        f"{sampler['runs']} reference runs)")
    exceed = []
    for parameter, ref in want["posterior"].items():
        got = results[parameter]
        stats = sampler["deviation"][parameter]
        for label, value, ref_value, quantile, largest in zip(
                ("mean", "HPD lower", "HPD upper"), [got["mean"], *got["hpd"]],
                [ref["mean"], *ref["hpd"]], stats["quantile"], stats["max"]):
            worst = max(worst, _bound(f"{parameter} {label}", value, ref_value,
                                      IS_MAX_FACTOR * largest, problems))
            exceed.append(not abs(value - ref_value) <= quantile)
    return problems, worst, exceed


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def beta_binomial_tail(k: int, n: int, a: float, b: float) -> float:
    """P(X >= k) for X ~ BetaBinomial(n, a, b), summed from k upward."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    log_term = (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + _log_beta(k + a, n - k + b) - _log_beta(a, b))
    term, total = math.exp(log_term), 0.0
    for i in range(k, n + 1):
        total += term
        term *= (n - i) * (i + a) / ((i + 1) * (n - i - 1 + b))
        if term <= total * 1e-17:
            break
    return min(total, 1.0)


def check_rate(label: str, count: int, trials: int, ref_count: int, ref_trials: int,
               problems: list) -> float:
    """Bound a count of events (reported failures, or deviations beyond a
    reference quantile) against the rate the reference run saw.

    One-sided: fails when the count has a tail probability below
    ``FAIL_TAIL_P``.  The event rate is not taken as known: given ``ref_count``
    of ``ref_trials`` in the reference (and a uniform prior) it is
    Beta(ref_count + 1, ref_trials - ref_count + 1), so the count is
    beta-binomial.  A rate the reference saw rarely or never is therefore not
    taken as zero, and the reference's own error does not fail long runs.
    Returns log(tail) over log(FAIL_TAIL_P): above 1 fails.
    """
    tail = beta_binomial_tail(count, trials, ref_count + 1, ref_trials - ref_count + 1)
    ratio = math.log(tail) / math.log(FAIL_TAIL_P) if tail > 0 else math.inf
    if not ratio <= 1.0:
        problems.append(f"{label}: {count} of {trials}, reference {ref_count} of {ref_trials} "
                        f"(tail probability {tail:.2g})")
    return ratio


def check_gof_p(p_value: float, sims: int, want: dict) -> tuple[list[str], float]:
    p_ref = want["p_value"]
    se = math.sqrt(max(p_ref * (1.0 - p_ref), 1e-12) * (1.0 / sims + 1.0 / want["sims"]))
    problems: list[str] = []
    return problems, _bound("p-value", p_value, p_ref, Z * se, problems)


class StudyWorkload:
    """Closed loop of ``run_study`` calls, each a batch of fresh replicates."""

    unit_calls = 1

    def __init__(self, name: str, seed: int, reference: dict):
        self.name = name
        self.seed = seed
        self.reference = reference["study"][name]
        spec = STUDIES[name]
        self.reps_per_call = spec["reps_per_call"]
        self.tasks_per_call = self.reps_per_call * len(spec["cells"])
        # running count, sum and sum of squares of the estimates per study_key,
        # so that the benchmark's own memory does not grow with the run
        self.sums: dict = {}
        # estimates run_study returned per (cell, method, prior); each call
        # asks every group for reps_per_call fits, and the rest failed
        self.used: dict = {}
        self.bad_values = 0
        self.calls = 0

    def label(self, i: int) -> str:
        return "run_study"

    def call(self, i: int):
        base_seed = self.seed * SEED_STRIDE + i
        return harness.run_study(study_config(self.name, base_seed, self.reps_per_call))

    def record(self, i: int, summary) -> None:
        config = summary.config
        self.calls += 1
        for row in summary.rows:
            if row.parameter == "alpha":
                group = fit_group((row.n, row.T, row.R), row.method, row.prior)
                self.used[group] = self.used.get(group, 0) + row.replicates_used
        for (cell_idx, method, pi, parameter), vals in summary.estimates.items():
            prior = config.priors[pi].as_tuple() if pi is not None else None
            key = study_key(config.cells[cell_idx], method, prior, parameter)
            finite = vals[np.isfinite(vals) & (vals > 0)]
            if parameter == "alpha":
                self.bad_values += int(vals.size - finite.size)
            acc = self.sums.setdefault(key, [0, 0.0, 0.0])
            acc[0] += finite.size
            acc[1] += float(finite.sum())
            acc[2] += float((finite ** 2).sum())
        for (cell_idx, method, pi, parameter), lens in summary.lengths.items():
            if parameter == "alpha":
                self.bad_values += int((~(np.isfinite(lens) & (lens > 0))).sum())

    def summary(self) -> dict:
        problems: list[str] = []
        worst = 0.0
        failing = set()    # (cell, method, prior) groups that fail a check
        per_group = self.calls * self.reps_per_call
        groups = sorted({key.rsplit("|", 1)[0] for key in self.reference})
        for key, ref in self.reference.items():
            group = key.rsplit("|", 1)[0]
            n, total, squares = self.sums.get(key, (0, 0.0, 0.0))
            if n < 2:
                problems.append(f"{key}: {n} estimates, too few to check")
                failing.add(group)
                continue
            mean = total / n
            var = max(squares - n * mean * mean, 0.0) / (n - 1)
            se = math.sqrt(var / n + ref["se"] ** 2)
            found = len(problems)
            worst = max(worst, _bound(f"{key} average of {n}", mean, ref["mean"], Z * se,
                                      problems))
            if len(problems) > found:
                failing.add(group)
            if key.endswith("|alpha"):
                fails = per_group - self.used.get(group, 0)
                ratio = check_rate(f"{group}: reported failed", fails, per_group,
                                   ref["failures"], ref["replicates"] + ref["failures"], problems)
                worst = max(worst, ratio)
                if ratio > 1.0:
                    failing.add(group)
        # every fit of a failing group counts as failed; the fits run_study
        # reported failed in the other groups are counted apart
        failed = min(self.bad_values + per_group * len(failing), per_group * len(groups))
        reported: dict = {}
        for group in groups:
            fails = per_group - self.used.get(group, 0)
            if fails and group not in failing:
                method = group.split("|")[1]
                reported[method] = reported.get(method, 0) + fails
        return {"attempted": per_group * len(groups), "failed": failed, "problems": problems,
                "check_ratio_max": worst, "fit_failures": sum(reported.values()),
                "fit_failures_by_method": dict(sorted(reported.items()))}


class IsTally:
    """What one importance-sampling command did over a run."""

    def __init__(self, stats: int):
        self.attempted = 0
        self.reported = 0       # exits with the program's own error message
        self.failed = 0         # outputs that failed their own check
        self.checked = 0        # outputs whose deviations were counted
        self.exceed = [0] * stats


class CliWorkload:
    """Closed loop over the ``cli_session`` command mix, one round per unit."""

    tasks_per_call = 1

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.commands = cli_commands(seed)
        self.round = 0
        self.unit_calls = len(self.commands)
        self.reference = reference["cli"]
        self.attempted = 0
        self.failed = 0
        self.is_tally: dict = {}
        self.problems: list[str] = []
        self.worst = 0.0

    def label(self, i: int) -> str:
        return self.commands[i % self.unit_calls][0]

    def argv(self, i: int) -> list[str]:
        if i // self.unit_calls != self.round:
            self.round = i // self.unit_calls
            self.commands = cli_commands(self.seed, self.round)
        return self.commands[i % self.unit_calls][1]

    def call(self, i: int):
        argv = self.argv(i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:     # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    def record(self, i: int, output) -> None:
        argv = self.argv(i)
        code, out, err = output
        self.attempted += 1
        if argv[0] == "bayes" and "is" in argv:
            problems = self._record_is(argv, code, out, err)
        else:
            problems = self._check(argv, code, out)
        if problems:
            self.failed += 1
            self._note(" ".join(argv), problems)

    def _note(self, label: str, problems: list[str]) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    def _report(self, code, out, err) -> tuple[dict | None, list[str]]:
        if code != 0:
            return None, [f"exit code {code}: {err.strip()}"]
        try:
            return json.loads(out), []
        except json.JSONDecodeError as exc:
            return None, [f"report is not JSON: {exc}"]

    def _check(self, argv, code, out) -> list[str]:
        """Problems with one deterministic or gof command's output."""
        report, problems = self._report(code, out, "")
        if report is None:
            return problems
        want = self.reference[command_key(argv)]
        results = report["results"]
        if argv[0] == "gof":
            problems, ratio = check_gof_p(results["p_value"], report["method"]["sims"], want)
            self.worst = max(self.worst, ratio)
            return check_deterministic(results["statistic"], want["statistic"]) + problems
        return check_deterministic(results, want["results"])

    def _record_is(self, argv, code, out, err) -> list[str]:
        """Check one importance-sampling report and add it to its tally."""
        key = command_key(argv)
        want = self.reference[key]
        tally = self.is_tally.setdefault(key, IsTally(3 * len(want["posterior"])))
        tally.attempted += 1
        if code in (1, 2) and err.startswith("error:"):
            # a weight collapse reported by the program itself, as run_study
            # reports failed fits; its rate is checked in summary()
            tally.reported += 1
            return []
        report, problems = self._report(code, out, err)
        if report is None:
            tally.failed += 1
            return problems
        problems, ratio, exceed = check_is(report["results"], report["method"]["ess"], want)
        self.worst = max(self.worst, ratio)
        if problems:
            tally.failed += 1
            return problems
        tally.checked += 1
        tally.exceed = [n + e for n, e in zip(tally.exceed, exceed)]
        return []

    def summary(self) -> dict:
        """Pool the importance-sampling tallies: reported failures and
        deviations beyond the reference quantile must not be improbable at
        the reference rates, or every command of that key counts as failed."""
        failed, reported = self.failed, 0
        for key, tally in self.is_tally.items():
            sampler = self.reference[key]["sampler"]
            ref_ok = sampler["runs"] - sampler["failures"]
            problems: list[str] = []
            ratios = [check_rate(f"{key}: reported failed", tally.reported, tally.attempted,
                                         sampler["failures"], sampler["runs"], problems)]
            names = [f"{p} {stat}" for p in sampler["deviation"]
                     for stat in ("mean", "HPD lower", "HPD upper")]
            ref_exceed = [n for p in sampler["deviation"].values() for n in p["exceed"]]
            for name, count, ref_count in zip(names, tally.exceed, ref_exceed):
                ratios.append(check_rate(
                    f"{key}: {name} beyond the reference {sampler['quantile']:g} quantile",
                    count, tally.checked, ref_count, ref_ok, problems))
            self.worst = max(self.worst, *ratios)
            if problems:
                failed += tally.attempted - tally.failed
                self.problems += problems
            else:
                reported += tally.reported
        return {"attempted": self.attempted, "failed": failed, "problems": self.problems,
                "check_ratio_max": self.worst, "fit_failures": reported,
                "fit_failures_by_method": {"is": reported} if reported else {}}


def make_workload(name: str, seed: int, reference: dict):
    if name == "cli_session":
        return CliWorkload(seed, reference)
    return StudyWorkload(name, seed, reference)


WORKLOADS = ("study_bayes", "study_mle", "cli_session")
