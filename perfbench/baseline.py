"""Measure a trajectory point: every workload over ten seeds, then traced.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py [--out perfbench/BASELINE.json]

Runs ``run.py`` untraced once per seed in ``SEEDS`` and workload, and
traced once per workload on the first seed, then writes each end-to-end
metric's median and quartiles (``statistics.quantiles(values, n=4)``)
with the relative spread ``(q3 - q1) / median`` the metric's bound must
exceed three times, the traced per-layer values, and the machine.  The
workload rationale and the layer -> end-to-end predictions are kept from
the existing file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    sys.stderr.write(proc.stdout)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    return result


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_path = Path(args.out)
    previous = json.loads(out_path.read_text()) if out_path.exists() else {}
    seconds = spec["run_seconds"]
    baseline = {"machine": machine(), "run_seconds": seconds,
                "seeds": list(SEEDS), "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        old = previous.get("workloads", {}).get(name, {})
        runs = [run(name, seed, 0, seconds) for seed in SEEDS]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"],
            }
        traced = run(name, SEEDS[0], 1, seconds)
        baseline["workloads"][name] = {
            "why": workload["why"],
            "predictions": old.get("predictions", {}),
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out_path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
