#!/usr/bin/env python3
"""Run every workload of the benchmark and tabulate the result set.

    python3 bench/suite.py --out bench/results/mine.jsonl             # seed 1
    python3 bench/suite.py --seeds 1 2 3 4 5 --out r.jsonl
    python3 bench/suite.py --trace --out r.jsonl                      # traced runs
    python3 bench/suite.py --heldout --out r.jsonl                    # held-out seed

Each (workload, seed) is one ``run.py`` process, run one after another so
that runs never share the CPU.  Runs append their full records to ``--out``;
the suite then prints the medians and quartiles of every metric through
``compare.py``.  ``--trace`` makes traced runs instead of untraced ones.
``--heldout`` runs the held-out seed instead of ``--seeds``: it is kept out
of every run made while tuning a change, so a claimed gain can be confirmed
on inputs the change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402

HELDOUT_SEED = 90_001


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--heldout", action="store_true", help=f"run seed {HELDOUT_SEED} only")
    parser.add_argument("--trace", action="store_true", help="make traced runs")
    parser.add_argument("--out", required=True, help="JSON-lines result set to append to")
    args = parser.parse_args(argv)
    seeds = [HELDOUT_SEED] if args.heldout else args.seeds
    status = 0
    for seed in seeds:
        for workload in [w["name"] for w in bench["workloads"]]:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(int(args.trace)), "--out", args.out]
            print(f"$ {' '.join(cmd[1:])}", flush=True)
            status |= subprocess.run(cmd, cwd=ROOT, timeout=600).returncode
    compare.table(compare.load(args.out), bench)
    return status


if __name__ == "__main__":
    sys.exit(main())
