"""Self-test of the benchmark's tracing and failure accounting.

Run from the repository root (about 30 s):

    python3 perfbench/selftest.py [--workload scalar]

1. One unit of the workload runs plain, under the host-speed sampler and
   traced, with the same seed; every artifact, run.json included, must be
   byte-identical, so neither sampling nor tracing changes a result.
2. The self times of all spans inside the traced unit sum to its total.
3. The traced functions are bound where the benchmark expects them.
4. An arm run with exploration seed 10 (too little excitation for the
   degree-5 basis at this commit) is recorded as one failed operation
   with category PEViolation instead of stopping the benchmark.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PE_FAILING_SEED = 10


def artifacts(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def compare(plain, untraced: dict, outcome, after: dict, what: str) -> list:
    problems = []
    if plain != outcome:
        problems.append(f"outcome differs under {what}: {plain} vs {outcome}")
    if untraced.keys() != after.keys():
        problems.append(
            f"artifact sets differ under {what}: {sorted(untraced)} vs {sorted(after)}"
        )
    for fname in sorted(untraced.keys() & after.keys()):
        if untraced[fname] != after[fname]:
            problems.append(f"{fname} differs under {what}")
    return problems


def check_measuring_changes_nothing(name: str, seed: int) -> list:
    out = workloads.OUT_ROOT / "selftest"
    workload = workloads.WORKLOADS[name]()
    workload.setup(seed)
    plain = workload.prepare(0, out)()
    untraced = artifacts(out) if out.is_dir() else {}

    workload = workloads.WORKLOADS[name]()
    workload.setup(seed)
    _, references, outcomes = bench.run_units(workload, 0.0, out, sample_host=True)
    sampled = artifacts(out) if out.is_dir() else {}
    problems = compare(plain, untraced, outcomes[0], sampled, "host sampling")

    tracer = spans.Tracer()
    tracer.install()
    try:
        workload = workloads.WORKLOADS[name]()
        workload.setup(seed)
        _, _, outcomes = bench.run_units(workload, 0.0, out, tracer)
    finally:
        tracer.uninstall()
    traced = artifacts(out) if out.is_dir() else {}
    problems += compare(plain, untraced, outcomes[0], traced, "tracing")
    if name != "certify_bundle" and "run.json" not in traced:
        problems.append("no run.json written")

    dur, own, name_id, op = tracer.durations()
    in_unit = op >= 0
    roots = in_unit & (name_id == tracer.names.index(bench.ROOT_SPAN))
    total = float(dur[roots].sum())
    summed = float(own[in_unit].sum())
    if not np.isclose(summed, total, rtol=1e-9, atol=0.0):
        problems.append(f"self times sum to {summed!r}, traced total is {total!r}")
    if not np.all(own[in_unit] >= -1e-9):
        problems.append("a span has negative self time")
    print(f"  {name}: {len(dur)} spans, traced total {total:.4f} s, "
          f"self-time sum {summed:.4f} s, {len(traced)} artifacts compared; "
          f"reference kernel {references[0] * 1e3:.3f} ms while sampled")
    for attr, modules in sorted(tracer.bindings.items()):
        if attr in spans.EXPECTED_BINDINGS:
            print(f"  {attr} wrapped in {', '.join(modules)}")
    return problems


def check_failure_is_recorded(seed: int) -> list:
    workload = workloads.WORKLOADS["arm"]()
    workload.setup(seed)
    workload.exploration_seed = lambda unit: PE_FAILING_SEED
    outcome = workload.prepare(0, workloads.OUT_ROOT / "selftest")()
    print(f"  arm with exploration seed {PE_FAILING_SEED}: {outcome}")
    if (outcome.attempted, outcome.failed, outcome.reasons) != (1, 1, ["PEViolation"]):
        return [f"expected one PEViolation failure, got {outcome}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="scalar", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    problems = check_measuring_changes_nothing(args.workload, args.seed)
    problems += check_failure_is_recorded(args.seed)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
