#!/usr/bin/env python3
"""Compare two benchmark result sets, or tabulate one.

    python3 bench/compare.py BASE.jsonl NEW.jsonl
    python3 bench/compare.py RESULTS.jsonl

A result set is the JSON-lines file that ``run.py --out`` (or ``suite.py``)
appends to.  With two sets, each (workload, end-to-end metric) row gives the
median and quartiles of both sides and a verdict by the rule of section 8 of
the choosing-metrics guide:

- ``worse``: NEW's median is worse than BASE's by more than the metric's
  bound in ``BENCHMARK.json``;
- ``improved``: NEW wins at least nine tenths of the pairs (runs paired by
  seed, ties count for neither) and the medians differ by more than BASE's
  interquartile range;
- ``unresolved``: BASE's own spread (IQR / median) exceeds the bound and
  not every NEW run beats every BASE run;
- ``no worse``: otherwise.

It also prints ``fail_frac`` of each side with its base counts.  With one set
it prints the medians and quartiles of every end-to-end metric and, from the
traced runs, of every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def declared(bench: dict) -> dict:
    """Metric name -> (better, bound) from BENCHMARK.json."""
    out = {m["name"]: (m["better"], m.get("bound")) for m in bench.get("per_layer", [])}
    out.update({m["name"]: (m["better"], m.get("bound")) for m in bench.get("end_to_end", [])})
    return out


def series(records: list[dict], workload: str, metric: str) -> dict:
    """seed -> value of ``metric`` in the untraced runs of ``workload``."""
    out = {}
    for rec in records:
        if rec["workload"] != workload or rec["trace"]:
            continue
        value = rec["metrics"].get(metric, rec["extra"].get(metric))
        if value is not None:
            out[rec["seed"]] = value["value"]
    return out


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    b, n = list(base.values()), list(new.values())
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(b)
    _, nm, _ = quartiles(n)
    if sign * (nm - bm) < -bound * abs(bm):
        return "worse"
    pairs = [(base[s], new[s]) for s in base if s in new] or list(zip(b, n))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    if wins >= 0.9 * len(pairs) and abs(nm - bm) > (b3 - b1):
        return "improved"
    all_better = min(sign * x for x in n) > max(sign * x for x in b)
    if (b3 - b1) > bound * abs(bm) and not all_better:
        return "unresolved"
    return "no worse"


def fail_line(records: list[dict], workload: str) -> str:
    runs = [r for r in records if r["workload"] == workload]
    attempted = sum(r["attempted"] for r in runs)
    checked = sum(r["failed"] for r in runs)
    reported = sum(r["fit_failures"] for r in runs)
    frac = (checked + reported) / attempted if attempted else float("nan")
    return (f"fail_frac {frac:.4g} = {checked + reported}/{attempted} (output checks "
            f"{checked}, reported failed by the program {reported}) over {len(runs)} runs")


def fmt(q) -> str:
    return f"{q[1]:11.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(base: list[dict], new: list[dict], bench: dict) -> None:
    decl = declared(bench)
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for workload in workloads:
        print(f"== {workload}")
        print(f"   base {fail_line(base, workload)}")
        print(f"   new  {fail_line(new, workload)}")
        names = [m["name"] for m in bench.get("end_to_end", [])]
        extra = sorted({k for r in base if r["workload"] == workload and not r["trace"]
                        for k in r["extra"]})
        for metric in names + extra:
            b, n = series(base, workload, metric), series(new, workload, metric)
            if not b or not n:
                continue
            better, bound = decl.get(metric, ("lower", None))
            bound = 0.1 if bound is None else bound
            print(f"   {metric:24s} base {fmt(quartiles(list(b.values())))}  "
                  f"new {fmt(quartiles(list(n.values())))}  n={len(b)}/{len(n)}  "
                  f"{verdict(b, n, better, bound)}")


def table(records: list[dict], bench: dict) -> None:
    for workload in sorted({r["workload"] for r in records}):
        untraced = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        print(f"== {workload}: {len(untraced)} untraced, {len(traced)} traced runs")
        print(f"   {fail_line(records, workload)}")
        if untraced:
            first = {**untraced[0]["metrics"], **untraced[0]["extra"]}
            for metric, entry in first.items():
                values = list(series(records, workload, metric).values())
                unit = entry["unit"]
                q = quartiles(values)
                spread = (q[2] - q[0]) / q[1] if q[1] else float("nan")
                print(f"   {metric:34s} {fmt(q)} {unit:5s} IQR/median {spread:.3f}")
        if traced:
            wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
            for metric in [m["name"] for m in bench.get("per_layer", [])]:
                values = [r["metrics"][metric]["value"] for r in traced]
                unit = traced[0]["metrics"][metric]["unit"]
                q = quartiles(values)
                share = f"  {100 * q[1] / wall:5.1f}% of traced time" \
                    if metric.endswith("busy_s") or metric.endswith("self_s") else ""
                print(f"   {metric:34s} {fmt(q)} {unit}{share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="+", help="one result set to tabulate, or BASE and NEW")
    args = parser.parse_args(argv)
    if len(args.sets) > 2:
        parser.error("give one or two result sets")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(path) for path in args.sets]
    if len(sets) == 1:
        table(sets[0], bench)
    else:
        compare(sets[0], sets[1], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
