"""Paired end-to-end benchmark runs of two source trees.

Runs ``perfbench/run.py --trace 0`` on a parent tree and a change tree in
alternating pairs, one pair per seed, and starts each pair with the other
side than the pair before, so a drift in host speed does not favour one
side.  Each run's end-to-end metrics (`run_ref`, `setup_s`, `peak_rss_mb`)
are recorded per pair, with each side's median and quartiles, the number of
pairs the change wins (lower is better for all three), `claim_met` (at
least 10 pairs, the change wins at least 90% of them, and its median lies
below the parent's by more than the parent's quartile spread), and for each
tree's `src/` its line count, its number of statements (`src_statements`,
the `ast.stmt` nodes: a measure of code that docstrings, comments and line
breaks do not move), its number of function parameters with a default
(`src_defaults`, the options the code offers) and its number of config keys
(`config_keys`, the rows of `harness.CONFIG_KEYS`), and the
top-level non-stdlib modules that ``import robustpi.harness`` adds to a
fresh interpreter (`runtime_imports`): unlike set-up time this list is
deterministic, so a new heavy import shows as a changed list.  After the
pairs, one ``--trace 1`` run per side on the first seed records the
per-unit layer figures `basis.design_matrix.calls`, `basis.design_matrix.rows`
(the points all design matrices were built at, a deterministic count),
`dynsys.integrate.steps`, `dynsys.integrate.steps_per_s`,
`dynsys.simulate_batch.traj_steps` and `dynsys.simulate_batch.self_s` (the
batched RK4 that `certify_bundle` runs in place of `integrate`) under
``per_layer.{parent,change}``; the end-to-end figures come from the
untraced runs only.  Results are merged
into the JSON file named by ``--out`` under ``workloads.<name>``, so one
file can hold several workloads measured on different seeds.  The ``host``
block records Python, the machine, its CPU count, and the numpy version with
the SIMD extensions numpy dispatches to, as `numpy.show_runtime()` reports
them: byte identity of batched and per-call numpy results rests on those.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload arm --seeds 11 12 13 14 15 16 17 18 19 20 --seconds 36 \\
        --out BENCH.json

Nothing under either tree's `perfbench/` is modified; perfbench writes its
artifacts to `.perfbench_out/` inside the tree it runs in.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("run_ref", "setup_s", "peak_rss_mb")
LAYER_METRICS = (
    "basis.design_matrix.calls",
    "basis.design_matrix.rows",
    "dynsys.integrate.steps",
    "dynsys.integrate.steps_per_s",
    "dynsys.simulate_batch.traj_steps",
    "dynsys.simulate_batch.self_s",
)
# perfbench runs at least one unit, and the counts per unit do not depend on
# how many run, so the traced run asks for as little time as it can
TRACE_SECONDS = 1.0
SIDES = ("parent", "change")
# a gain is claimed only over this many pairs, if the change wins this share
CLAIM_MIN_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def src_lines(tree: Path) -> int:
    """Lines of Python under the tree's src/."""
    return sum(len(p.read_text().splitlines()) for p in sorted((tree / "src").rglob("*.py")))


def src_statements(tree: Path) -> int:
    """Statements (`ast.stmt` nodes, nested ones included) under the tree's src/."""
    return sum(
        isinstance(node, ast.stmt)
        for path in sorted((tree / "src").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
    )


def src_defaults(tree: Path) -> int:
    """Parameters with a default value over the `def`s under the tree's src/
    (lambdas not counted), read with `ast`."""
    count = 0
    for path in sorted((tree / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def config_keys(tree: Path) -> int:
    """Rows of `CONFIG_KEYS` in the tree's `src/robustpi/harness.py`, read with `ast`."""
    module = ast.parse((tree / "src" / "robustpi" / "harness.py").read_text())
    for node in module.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CONFIG_KEYS" for t in node.targets
        ):
            return len(node.value.elts)
    raise SystemExit(f"{tree}: no CONFIG_KEYS in src/robustpi/harness.py")


def runtime_imports(tree: Path) -> list:
    """Sorted top-level non-stdlib module names that ``import robustpi.harness``
    adds to `sys.modules` in a fresh interpreter on the tree's src/.  Modules
    loaded at start-up (by `site`, say) are left out: they are the host's."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import robustpi.harness\n"
        "top = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps(sorted(top - set(sys.stdlib_module_names))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tree, capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: import robustpi.harness failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def numpy_runtime() -> dict:
    """numpy's version and SIMD extensions as `numpy.show_runtime()` reports
    them: the baseline, and the dispatch targets this CPU has.

    The figures are those of the numpy this script imports, not necessarily
    the one each tree's perfbench run imports.  The SIMD lists come from a
    private numpy module; where it is missing they are recorded as null.
    """
    import numpy

    out = {"version": numpy.__version__, "simd_baseline": None, "simd_found": None}
    for module in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(module)
            features = umath.__cpu_features__
            out["simd_baseline"] = list(umath.__cpu_baseline__)
            out["simd_found"] = [f for f in umath.__cpu_dispatch__ if features.get(f)]
            break
        except (ImportError, AttributeError):
            continue
    return out


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result of one perfbench run in `tree`."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`; its metric values and failure count."""
    result = perfbench(tree, workload, seed, seconds, 0)
    out = {name: result["metrics"][name]["value"] for name in METRICS}
    out["failed"] = result["failed"]
    out["attempted"] = result["attempted"]
    return out


def summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def measure(parent: Path, change: Path, workload: str, seeds: list, seconds: float) -> dict:
    trees = {"parent": parent, "change": change}
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], workload, seed, seconds)
        pairs.append(pair)
        print(
            f"{workload} seed {seed} ({order[0]} first): run_ref "
            f"{pair['parent']['run_ref']:.1f} -> {pair['change']['run_ref']:.1f}",
            flush=True,
        )
    report = {"seeds": list(seeds), "seconds": seconds, "pairs": pairs}
    for name in METRICS:
        sides = {side: summary([p[side][name] for p in pairs]) for side in SIDES}
        base = sides["parent"]["median"]
        sides["change_wins"] = sum(p["change"][name] < p["parent"][name] for p in pairs)
        sides["relative_change"] = sides["change"]["median"] / base - 1.0 if base else None
        sides["parent_quartile_spread"] = sides["parent"]["q3"] - sides["parent"]["q1"]
        sides["claim_met"] = (
            len(pairs) >= CLAIM_MIN_PAIRS
            and sides["change_wins"] >= CLAIM_WIN_SHARE * len(pairs)
            and base - sides["change"]["median"] > sides["parent_quartile_spread"]
        )
        report[name] = sides
    report["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
    report["per_layer"] = {}
    for side in SIDES:
        metrics = perfbench(trees[side], workload, seeds[0], TRACE_SECONDS, 1)["metrics"]
        report["per_layer"][side] = {name: metrics[name]["value"] for name in LAYER_METRICS}
        print(f"{workload} {side} per unit: {report['per_layer'][side]}", flush=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the reference tree")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to merge into")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file() or not (tree / "src").is_dir():
            parser.error(f"{side} tree {tree} has no perfbench/run.py or src/")
    report = measure(trees["parent"], trees["change"], args.workload, args.seeds, args.seconds)

    data = json.loads(args.out.read_text()) if args.out.is_file() else {}
    data["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "numpy": numpy_runtime(),
    }
    data["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
    data["src_statements"] = {side: src_statements(tree) for side, tree in trees.items()}
    data["src_defaults"] = {side: src_defaults(tree) for side, tree in trees.items()}
    data["config_keys"] = {side: config_keys(tree) for side, tree in trees.items()}
    data["runtime_imports"] = {side: runtime_imports(tree) for side, tree in trees.items()}
    data.setdefault("workloads", {})[args.workload] = report
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    r = report["run_ref"]
    print(
        f"{args.workload}: run_ref median {r['parent']['median']:.1f} -> "
        f"{r['change']['median']:.1f} ({100 * r['relative_change']:+.1f}%), "
        f"change wins {r['change_wins']}/{len(args.seeds)}, parent quartile spread "
        f"{r['parent_quartile_spread']:.1f}, claim met: {r['claim_met']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
