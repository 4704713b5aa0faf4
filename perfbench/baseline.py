"""Measure the benchmark's baseline and write perfbench/baseline.json.

Run from the repository root (about twenty-five minutes for three workloads):

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads arm scalar] [--out FILE]

Each workload of BENCHMARK.json (or of --workloads) runs once per seed with
--trace 0 (end-to-end medians, quartiles and their spread as a share of the
median, and the same for the unit wall time and the reference-kernel time
the run prints), then once with --trace 1 on the first seed (per-layer
figures).  The file also records the machine, the BLAS build and thread
setting, and the line count of src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the untraced run's line with the median unit wall time and reference time
HOST_LINE = re.compile(r"unit wall time median ([0-9.]+) s.*reference kernel median ([0-9.]+) ms")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    host = HOST_LINE.search(proc.stdout)
    if host:
        result["unit_wall_s"], result["reference_ms"] = float(host[1]), float(host[2])
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
    }


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    result = {
        "machine": machine(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "src_lines": src_lines(),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        end_to_end = {
            metric["name"]: summarize([r["metrics"][metric["name"]]["value"] for r in runs])
            for metric in spec["end_to_end"]
        }
        traced = run_once(workload, seeds[0], spec["run_seconds"], 1)
        result["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "host": {key: summarize([r[key] for r in runs])
                     for key in ("unit_wall_s", "reference_ms")},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        line = ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
                         for k, v in end_to_end.items())
        print(f"{workload}: {line}", flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
