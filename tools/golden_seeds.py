"""Run every arm exploration seed of the benchmark's golden file on one tree.

For each arm seed in ``perfbench/golden.json`` (`seeds.arm`,
`other_seeds.arm` and the keys of `failing_seeds.arm`) this runs
``run_algorithm_1`` on TREE's ``arm.cfg`` with that exploration seed, from
TREE's own `src/`, with one BLAS thread as the benchmark uses.  It prints
one line per seed: the outcome (the converged iteration, or the category
of the error raised) and the relative gaps |a - b| / |b| of `rho`,
`certified_d` and `sigma_level` to the golden values; a failing seed prints
its error message instead, which carries the excitation ratio of a
`PEViolation`.

    python3 tools/golden_seeds.py TREE

Exits 1 when a seed's outcome differs from the golden file's (a golden seed
that does not converge within `max_iterations` or whose small-gain check
fails, or a failing seed that does not raise its category) or a gap
exceeds the golden `rtol`, and 0 otherwise.  The golden file is read from
the tree this tool lives in; nothing under `perfbench/` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
KEYS = ("rho", "certified_d", "sigma_level")

# runs in TREE's interpreter: argv is the config, an output root and the
# seeds; prints one JSON line per seed
WORKER = """
import dataclasses, json, sys
from pathlib import Path
from robustpi import harness
from robustpi.errors import ToolkitError
config = harness.load_config(Path(sys.argv[1]))
for seed in sys.argv[3:]:
    run_config = dataclasses.replace(
        config, exploration_seed=int(seed), out_dir=str(Path(sys.argv[2]) / seed)
    )
    try:
        run = harness.run_algorithm_1(run_config)
    except ToolkitError as exc:
        print(json.dumps({"seed": seed, "error": exc.category, "message": str(exc)}), flush=True)
        continue
    report = run.robust_report
    print(json.dumps({
        "seed": seed,
        "iterations": run.pi_result.converged_iteration,
        "small_gain_holds": bool(report["small_gain_holds"]),
        "values": {key: report[key] for key in %r},
    }), flush=True)
""" % (KEYS,)


def relative_gap(value, target) -> float:
    return abs(value - target) / abs(target) if value is not None else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, help="the source tree to run")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    config = tree / "src" / "robustpi" / "configs" / "arm.cfg"
    if not config.is_file():
        parser.error(f"{tree} has no src/robustpi/configs/arm.cfg")

    golden = json.loads(GOLDEN.read_text())
    arm = golden["arm"]
    failing = golden["failing_seeds"]["arm"]
    seeds = sorted(
        {*golden["seeds"]["arm"], *golden["other_seeds"]["arm"], *map(int, failing)}
    )
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    bad = 0
    print(f"{'seed':>4}  {'outcome':<12}" + "".join(f"  {key:>12}" for key in KEYS))
    with tempfile.TemporaryDirectory(prefix="golden_seeds_") as tmp:
        argv = [sys.executable, "-c", WORKER, str(config), tmp, *map(str, seeds)]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True) as proc:
            for line in proc.stdout:
                row = json.loads(line)
                seed = row["seed"]
                if "error" in row:
                    outcome = row["error"]
                    ok = failing.get(seed) == outcome
                    detail = f"  {row['message']}"
                else:
                    outcome = f"{row['iterations']} iterations"
                    ok = (
                        seed not in failing
                        and row["iterations"] is not None
                        and row["iterations"] <= arm["max_iterations"]
                        and row["small_gain_holds"]
                    )
                    # a failing seed that converges has no golden values
                    golden_values = arm["per_seed"].get(seed)
                    if golden_values is None:
                        ok, detail = False, ""
                    else:
                        gaps = [relative_gap(row["values"][k], golden_values[k]) for k in KEYS]
                        ok = ok and all(gap <= arm["rtol"] for gap in gaps)
                        detail = "".join(f"  {gap:12.3e}" for gap in gaps)
                bad += not ok
                flag = "" if ok else "  CHANGED"
                print(f"{seed:>4}  {outcome:<12}{detail}{flag}", flush=True)
        if proc.returncode:
            print(f"the runs stopped with exit code {proc.returncode}")
            return 1
    print(f"{bad} of {len(seeds)} seeds changed (rtol {arm['rtol']:g})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
