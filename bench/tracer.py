"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``iwhc`` modules from outside: it
replaces the module attribute and every by-name import of the same function
object in the other ``iwhc`` modules (``iwhc.harness.fit_mle``,
``iwhc.cli.bayes_is``, ``iwhc.posterior.sample_g2``, ...), so calls made
inside the package are traced as well.  No file of the package changes.

Each call records one span ``(name, start, end, parent, task, child_s, ok)``
in memory: ``parent`` is the index of the enclosing span (-1 at top level),
``task`` the identifier of the replicate or command that caused it, and
``child_s`` the time covered by its direct children, so self time is
``end - start - child_s`` (spans of one thread nest without overlap).
Counts are recorded at the same boundaries.  ``write`` dumps the spans when
the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import sys
from time import perf_counter

# (module, function) pairs wrapped in the traced run; one span per call.
TRACED = (
    ("cli", "main"),
    ("datasets", "resolve"),
    ("harness", "run_study"),
    ("distribution", "sample"),
    ("censoring", "apply_scheme"),
    ("mle", "fit_mle"),
    ("lindley", "lindley_estimates"),
    ("posterior", "bayes_is"),
    ("posterior", "posterior_draws"),
    ("posterior", "sample_g2"),
    ("posterior", "sample_g1"),
    ("posterior", "hpd_interval"),
    ("gof", "ks_test"),
)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"draws": 0, "proposals": 0, "newton_iters": 0,
                       "null_sims": 0, "nonzero_exit": 0}
        self.ess_fracs: list[float] = []
        self.task = None
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list = []
        self._wrappers: dict = {}
        self._rep = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Replace every reference to a traced function inside ``iwhc``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "iwhc" or name.startswith("iwhc."))]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"iwhc.{mod_name}"], fn_name)
            wrapper = self._wrappers.get(original)
            if wrapper is None:
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                self._wrappers[original] = wrapper
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- recording -----------------------------------------------------------

    def start_task(self, task) -> None:
        """Name the closed-loop call whose spans follow."""
        self.task = task
        self._rep = 0

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = _ON_RESULT.get(name)
        signature = inspect.signature(fn)
        starts_replicate = name == "distribution.sample"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_replicate and tracer._stack:
                # inside run_study every replicate starts by drawing its data
                tracer._rep += 1
            task = tracer.task if not tracer._stack or not tracer._rep \
                else f"{tracer.task}/rep{tracer._rep}"
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._stack.append(index)
            tracer._child.append(0.0)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                tracer._stack.pop()
                child = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += end - start
                tracer.spans[index] = (name, start, end, parent, task, child, ok)
            if on_result is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_result(tracer, bound.arguments, result)
            return result

        return wrapper

    # -- summaries -----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per traced function: calls, busy_s, self_s and failures."""
        stats = {f"{m}.{f}": {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "failures": 0}
                 for m, f in TRACED}
        for name, start, end, _parent, _task, child, ok in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child
            entry["failures"] += not ok
        return stats

    def span_ms_by_task(self, name: str) -> dict:
        """Durations (ms) of top-level spans called ``name``, keyed by task."""
        out: dict = {}
        for span_name, start, end, parent, task, _child, _ok in self.spans:
            if span_name == name and parent == -1:
                out.setdefault(task, []).append((end - start) * 1e3)
        return out

    def ess_frac_p50(self) -> float:
        return statistics.median(self.ess_fracs) if self.ess_fracs else 0.0

    def ars_acceptance(self) -> float:
        return self.counts["draws"] / self.counts["proposals"] if self.counts["proposals"] else 0.0

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        keys = ("name", "start", "end", "parent", "task", "child_s", "ok")
        with gzip.open(path, "wt") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _posterior_draws(tracer, arguments, draws):
    # acceptance_ratio is draws/proposals of the ARS run (one chunk per call)
    tracer.counts["draws"] += draws.size
    tracer.counts["proposals"] += draws.size / draws.acceptance_ratio


def _bayes_is(tracer, arguments, result):
    tracer.ess_fracs.append(result.draws.ess / result.draws.size)


def _fit_mle(tracer, arguments, fit):
    tracer.counts["newton_iters"] += fit.iterations


def _ks_test(tracer, arguments, result):
    tracer.counts["null_sims"] += int(arguments["sims"])


def _cli_main(tracer, arguments, code):
    tracer.counts["nonzero_exit"] += code != 0


_ON_RESULT = {
    "posterior.posterior_draws": _posterior_draws,
    "posterior.bayes_is": _bayes_is,
    "mle.fit_mle": _fit_mle,
    "gof.ks_test": _ks_test,
    "cli.main": _cli_main,
}
