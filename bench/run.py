#!/usr/bin/env python3
"""Run one benchmark workload and print its result as a JSON line.

    python3 bench/run.py --workload study_bayes --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload cli_session --seed 1 --seconds 25 --trace 1 --out r.jsonl

Run it from anywhere inside a checkout: the package is imported from the
checkout's ``src`` directory.  The run is one process, one thread, a closed
loop (the next call starts when the previous one returns) for ``--seconds``
seconds after one warm-up round.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
rounds and reports the per-layer metrics plus the tracing overhead, and
writes the spans to ``.bench_out/``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; ``--out`` also appends
the full record (metadata, sample counts, raw wall times) to a JSON-lines
file that ``compare.py`` reads.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# BLAS/OpenMP caps for this process and its children: one thread each.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

WORKLOAD_NAMES = ("study_bayes", "study_mle", "cli_session")
MIN_CALLS = 21          # so that the tail percentile has ten samples beyond it
SETUP_REPEATS = 7       # fresh interpreters timed for setup_s, after one warm-up

# Times are reported at a reference CPU speed: each measured time is scaled
# by CAL_REF_S / (time of the calibration loop measured next to it).  On
# shared cores the CPU speed drifts by up to 2x over seconds, while the
# ratio of a call to the calibration loop stays within a few percent.
CAL_REF_S = 0.002

SETUP_CODE = """\
import time
start = time.perf_counter()
import iwhc, iwhc.cli
from iwhc import datasets
datasets.resolve("flood"), datasets.resolve("guinea")
print(time.perf_counter() - start)
"""


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy work.

    The mix resembles the package's own (scalar Python arithmetic, function
    calls and numpy calls on tens of values, one sort of a few thousand), so
    a slower CPU slows both by about the same factor.
    """
    import numpy as np

    x, block = _calibration_data()
    start = perf_counter()
    acc = 0.0
    for i in range(200):
        y = np.sort(x * (1.0 + i * 1e-3))
        acc += float(np.log(y).sum()) + math.exp(-float(y[0]))
        for j in range(20):
            acc += math.sqrt(j + acc % 7.0)
    acc += float(np.sort(block, axis=1)[:, -1].sum())
    return perf_counter() - start


@functools.cache
def _calibration_data():
    import numpy as np

    rng = np.random.default_rng(12345)
    return rng.random(40), rng.random((200, 20))


def median_calibration(repeats: int) -> float:
    return statistics.median(calibration_loop() for _ in range(repeats))


def tail(values: list[float]) -> tuple[float, int, float]:
    """Highest order statistic with at least ten samples beyond it:
    (value, 1-based rank, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], rank, 100.0 * rank / n


def setup_sample() -> tuple[float, float]:
    """One setup_s sample: a fresh interpreter imports ``iwhc`` and ``iwhc.cli``
    and loads both bundled datasets.  Returns (reference-speed, wall) seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_CAPS)
    before = median_calibration(5)
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    after = median_calibration(5)
    seconds = float(proc.stdout.split()[-1])
    return seconds * CAL_REF_S / ((before + after) / 2), seconds


def closed_loop(workload, seconds: float, tracer=None) -> dict:
    """Warm up one unit, then call the workload back to back for ``seconds``.

    With a tracer, units alternate traced and untraced, starting traced.
    Without one, ``SETUP_REPEATS`` setup samples are spread evenly over the
    run, between units and off its clock, so that they see the same drifts
    of CPU speed as the calls.
    """
    unit = workload.unit_calls
    if tracer is None:
        setup_sample()      # the first import writes the bytecode caches
    for i in range(unit):
        workload.call(i)
    times, scaled, labels, traced_flags, cals, setups = [], [], [], [], [], []
    setup_due = [] if tracer else [seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
    cal_prev = median_calibration(3)
    start = perf_counter()
    paused = 0.0
    i = unit
    while perf_counter() - start - paused < seconds or (i - unit) < max(MIN_CALLS, 2 * unit) \
            or (i - unit) % unit:
        if setup_due and (i - unit) % unit == 0 \
                and perf_counter() - start - paused >= setup_due[0]:
            setup_due.pop(0)
            t0 = perf_counter()
            setups.append(setup_sample())
            cal_prev = median_calibration(3)
            paused += perf_counter() - t0
        traced = tracer is not None and ((i - unit) // unit) % 2 == 0
        if tracer is not None and (i - unit) % unit == 0:
            tracer.install() if traced else tracer.uninstall()
        if traced:
            tracer.start_task(f"call{i}:{workload.label(i)}")
        t0 = perf_counter()
        output = workload.call(i)
        elapsed = perf_counter() - t0
        cal = median_calibration(3)
        workload.record(i, output)
        times.append(elapsed)
        cals.append((cal_prev + cal) / 2)
        scaled.append(elapsed * CAL_REF_S / cals[-1])
        labels.append(workload.label(i))
        traced_flags.append(traced)
        cal_prev = cal
        i += 1
    while setup_due:        # a run shorter than its setup schedule
        setup_due.pop(0)
        setups.append(setup_sample())
    if tracer is not None:
        tracer.uninstall()
    return {"wall": times, "scaled": scaled, "labels": labels, "traced": traced_flags,
            "cal": cals, "setup": setups, "elapsed": perf_counter() - start}


def end_to_end(loop: dict, workload) -> tuple[dict, dict]:
    """The end-to-end metrics and the extra figures kept in the record."""
    scaled_ms = [t * 1e3 for t in loop["scaled"]]
    wall_ms = [t * 1e3 for t in loop["wall"]]
    n = len(scaled_ms)
    tail_ms, tail_rank, tail_pct = tail(scaled_ms)
    # throughput over whole units (a study call, or a round of the CLI mix):
    # the median unit rate is robust to a unit caught in a speed change
    unit = workload.unit_calls
    unit_tasks = unit * workload.tasks_per_call

    def unit_seconds(times):
        return statistics.median(sum(times[k:k + unit]) for k in range(0, n - unit + 1, unit))

    setup_scaled = [scaled for scaled, _ in loop["setup"]]
    setup_wall = [wall for _, wall in loop["setup"]]
    metrics = {
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s",
                    "samples": len(setup_scaled)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB", "samples": 1},
        "tasks_per_s": {"value": unit_tasks / unit_seconds(loop["scaled"]), "unit": "1/s",
                        "samples": n // unit},
        "call_ms_p50": {"value": statistics.median(scaled_ms), "unit": "ms", "samples": n},
        "call_ms_tail": {"value": tail_ms, "unit": "ms", "samples": n,
                         "rank": tail_rank, "percentile": round(tail_pct, 2)},
    }
    extra = {}
    classes = sorted(set(loop["labels"]))
    if len(classes) > 1:
        for cls in classes:
            values = [t for t, label in zip(scaled_ms, loop["labels"]) if label == cls]
            extra[f"{cls}_ms_p50"] = {"value": statistics.median(values), "unit": "ms",
                                      "samples": len(values)}
            if len(values) >= MIN_CALLS:
                value, rank, pct = tail(values)
                extra[f"{cls}_ms_tail"] = {"value": value, "unit": "ms", "samples": len(values),
                                           "rank": rank, "percentile": round(pct, 2)}
    # the same figures as measured, before scaling to the reference speed
    extra["wall_setup_s"] = {"value": statistics.median(setup_wall), "unit": "s",
                             "samples": len(setup_wall)}
    extra["wall_tasks_per_s"] = {"value": unit_tasks / unit_seconds(loop["wall"]),
                                 "unit": "1/s", "samples": n // unit}
    extra["wall_call_ms_p50"] = {"value": statistics.median(wall_ms), "unit": "ms", "samples": n}
    extra["calibration_ms_p50"] = {"value": statistics.median(loop["cal"]) * 1e3, "unit": "ms",
                                   "samples": n + 1}
    return metrics, extra


def per_layer(loop: dict, tracer) -> dict:
    """Per-layer metrics of the traced units, plus the tracing overhead."""
    stats = tracer.layer_stats()
    metrics: dict = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def per_call(count, name):
        calls = stats[name]["calls"]
        return count / calls if calls else 0.0

    # calls, draws and sims are totals over a fixed traced time, so a faster
    # program raises them; failures and Newton iterations are given per call
    for name, entry in stats.items():
        put(f"{name}.calls", entry["calls"], "count")
        put(f"{name}.busy_s", entry["busy_s"], "s")
        put(f"{name}.self_s", entry["self_s"], "s")
        put(f"{name}.failure_frac", per_call(entry["failures"], name), "ratio")
    put("posterior.sample_g2.draws", tracer.counts["draws"], "count")
    put("posterior.ars_acceptance", tracer.ars_acceptance(), "ratio")
    put("posterior.ess_frac_p50", tracer.ess_frac_p50(), "ratio")
    put("mle.newton_iters_per_fit", per_call(tracer.counts["newton_iters"], "mle.fit_mle"),
        "count")
    put("gof.null_sims", tracer.counts["null_sims"], "count")
    put("cli.main.nonzero_exit_frac", per_call(tracer.counts["nonzero_exit"], "cli.main"),
        "ratio")
    by_task = tracer.span_ms_by_task("cli.main")
    for cls in ("quick", "bayes_is", "gof"):
        values = [ms for task, spans in by_task.items() if task.endswith(f":{cls}")
                  for ms in spans]
        put(f"cli.main.{cls}_ms_p50", statistics.median(values) if values else 0.0, "ms")
    traced = [t for t, flag in zip(loop["scaled"], loop["traced"]) if flag]
    untraced = [t for t, flag in zip(loop["scaled"], loop["traced"]) if not flag]
    put("trace.wall_s", sum(t for t, flag in zip(loop["wall"], loop["traced"]) if flag), "s")
    put("trace.overhead_frac", sum(traced) / len(traced) / (sum(untraced) / len(untraced)) - 1.0,
        "ratio")
    return metrics


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "iwhc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    cpu_model = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "seed": seed,
        "thread_caps": THREAD_CAPS,
        "cal_ref_s": CAL_REF_S,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "iwhc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'iwhc'}; run from a checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(THREAD_CAPS)      # before numpy is first imported
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads
    from tracer import Tracer

    workload = workloads.make_workload(args.workload, args.seed, workloads.load_reference())
    tracer = Tracer() if args.trace else None
    loop = closed_loop(workload, args.seconds, tracer)
    outcome = workload.summary()
    correct = outcome["failed"] == 0 and not outcome["problems"]

    attempted, failed = outcome["attempted"], outcome["failed"]
    all_failures = failed + outcome["fit_failures"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(loop['wall'])} calls in {loop['elapsed']:.1f} s")
    if tracer is None:
        metrics, extra = end_to_end(loop, workload)
        shown = {**metrics, **extra}
    else:
        metrics, extra = per_layer(loop, tracer), {}
        shown = {m["name"]: metrics[m["name"]] for m in bench["per_layer"]}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl.gz")
    for name, m in shown.items():
        detail = f"  n={m['samples']}" if "samples" in m else ""
        if "rank" in m:
            detail += f"  rank {m['rank']} (p{m['percentile']:g})"
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}{detail}")
    print(f"  checks: {'pass' if correct else 'FAIL'}; failed {failed} of {attempted} operations; "
          f"largest deviation {outcome['check_ratio_max']:.3f} of its bound")
    print(f"  fail_frac {all_failures / attempted:.4g} = {all_failures}/{attempted} "
          f"(output checks {failed}, reported failed by the program "
          f"{outcome['fit_failures']} {outcome['fit_failures_by_method']})")
    for problem in outcome["problems"]:
        print(f"  check failed: {problem}")

    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
            "fit_failures": outcome["fit_failures"],
            "fit_failures_by_method": outcome["fit_failures_by_method"],
            "fail_frac": all_failures / attempted,
            "check_ratio_max": outcome["check_ratio_max"], "metrics": metrics, "extra": extra,
            "meta": metadata(args.seed),
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record) + "\n")

    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    result = {name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
              for name in declared}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
