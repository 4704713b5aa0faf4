"""robustpi benchmark: time to a certified controller, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload arm --seed 3 --seconds 36 --trace 0

Workloads: arm, cascade, scalar (`run_algorithm_1` on the bundled config,
artifacts written) and certify_bundle (Monte-Carlo check of the certified
arm loop); BENCHMARK.json lists the ones a set of runs covers.  The seed
picks the exploration seeds and the bundle samples.  The run repeats units
of work until `--seconds` would be exceeded (at least one), checks every
output, and prints one JSON object as its last line of standard output.

--trace 0 reports the end-to-end metrics: run_ref (median over units of
the unit's time divided by the harmonic mean of the reference-kernel times
sampled while it ran, see hostspeed.py), setup_s (median of this process's
set-up and SETUP_PROBES fresh processes: import, config parsing, system
build) and peak_rss_mb.  The unit wall times are printed too.
--trace 1 times one unit untraced, then wraps every traced layer function
(see spans.py) and reports per-layer counts and times per unit, plus the
tracing overhead.  The spans are written to .perfbench_out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 2
BLAS_THREADS = 1
ROOT_SPAN = "harness.glue"

END_TO_END = {"run_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, all per unit of work except harness.load_config.s (one
# set-up).  Suffix rules: `.self_s` is the self time of the span named by
# the prefix, `.s` its inclusive time, anything else a counter.
PER_LAYER = (
    "dynsys.integrate.calls",
    "dynsys.integrate.steps",
    "dynsys.integrate.self_s",
    "dynsys.integrate.steps_per_s",
    "dynsys.simulate_batch.traj_steps",
    "dynsys.simulate_batch.self_s",
    "dynsys.lipschitz_probe.self_s",
    "basis.design_matrix.calls",
    "basis.design_matrix.rows",
    "basis.design_matrix.self_s",
    "basis.gradient_tensor.calls",
    "basis.gradient_tensor.self_s",
    "online_pi.assemble_regression.calls",
    "online_pi.assemble_regression.self_s",
    "online_pi.solve_pi_step.calls",
    "online_pi.solve_pi_step.self_s",
    "online_pi.iterations",
    "pi_oracle.run_policy_iteration.self_s",
    "pi_oracle.policy_evaluation_collocation.self_s",
    "pi_oracle.probe_admissibility.s",
    "pi_oracle.iterations",
    "robust.inverse.calls",
    "robust.inverse.self_s",
    "robust.select_rho.s",
    "robust.select_rho.candidates",
    "robust.interconnection_sigma.s",
    "robust.certify_error_bound.s",
    "robust.radial_envelopes.s",
    "robust.roa.s",
    "robust.chi1.points",
    "backstep.phase_one.s",
    "backstep.assemble_phase_two.self_s",
    "backstep.solve_phase_two.self_s",
    "backstep.check_small_gain_cascade.s",
    "experiments.cost_surface_compare.self_s",
    "experiments.speed_profile_analysis.self_s",
    "harness.load_config.s",
    "harness.save.s",
    "harness.save.bytes",
    "harness.glue.self_s",
    "harness.trace_overhead_s",
)


def layer_unit(name: str) -> str:
    if name.endswith("steps_per_s"):
        return "1/s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def cap_blas_threads() -> str:
    """One BLAS/OpenMP thread (set before numpy loads).

    The program's matrices are small enough that a second thread saves no
    time, and a run that keeps to one CPU is not slowed by whatever else
    the host schedules on the other ones.
    """
    n = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    return n


def setup_probe_times(args) -> list:
    """Set-up time of fresh interpreters, measured inside each one."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_units(workload, seconds, out_dir, tracer=None, sample_host=False) -> tuple:
    """Repeat units until the next one would overrun `seconds` (at least one).

    With `sample_host`, each unit runs under a HostSpeed sampler: its time
    excludes the sampler's and its reference time is returned with it.
    """
    import hostspeed  # loaded only after cap_blas_threads has run

    times, references, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        unit = len(times)
        work = workload.prepare(unit, out_dir)
        if tracer is not None:
            tracer.current_op = unit
            span = tracer.open(ROOT_SPAN)
        with hostspeed.HostSpeed() if sample_host else contextlib.nullcontext() as host:
            t0 = time.perf_counter()
            outcome = work()
            times.append(time.perf_counter() - t0 - (host.spent if host else 0.0))
        if host:
            references.append(host.reference_s())
        if tracer is not None:
            tracer.close(span)
        outcomes.append(outcome)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return times, references, outcomes


def layer_metrics(tracer, n_units: int, overhead: float) -> dict:
    """Per-unit layer figures from the recorded spans and counters."""
    import numpy as np  # loaded only after cap_blas_threads has run

    dur, own, name_id, op = tracer.durations()
    n_names = len(tracer.names)
    in_unit = op >= 0
    inclusive = np.bincount(name_id[in_unit], weights=dur[in_unit], minlength=n_names)
    self_time = np.bincount(name_id[in_unit], weights=own[in_unit], minlength=n_names)
    setup = np.bincount(name_id[~in_unit], weights=dur[~in_unit], minlength=n_names)
    ids = {name: i for i, name in enumerate(tracer.names)}

    def per_unit(table, span):
        return float(table[ids[span]]) / n_units if span in ids else 0.0

    values = {}
    for name in PER_LAYER:
        if name == "harness.trace_overhead_s":
            values[name] = overhead
        elif name == "harness.load_config.s":
            values[name] = float(setup[ids["harness.load_config"]])
        elif name == "harness.glue.self_s":
            values[name] = per_unit(self_time, ROOT_SPAN) + per_unit(
                self_time, "harness.run_algorithm_1"
            )
        elif name == "dynsys.integrate.steps_per_s":
            busy = per_unit(inclusive, "dynsys.integrate")
            steps = tracer.counts["dynsys.integrate.steps"] / n_units
            values[name] = steps / busy if busy > 0 else 0.0
        elif name.endswith(".self_s"):
            values[name] = per_unit(self_time, name[: -len(".self_s")])
        elif name.endswith(".s"):
            values[name] = per_unit(inclusive, name[: -len(".s")])
        else:
            values[name] = tracer.counts[name] / n_units
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "robustpi" / "__init__.py").is_file():
        print(f"perfbench: no robustpi sources under {SRC}", file=sys.stderr)
        return 2
    threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out_dir = workloads.OUT_ROOT / args.workload
    if args.trace:
        import spans

        untraced, _, outcomes = run_units(workload, 0.0, out_dir)
        tracer = spans.Tracer()
        tracer.install()
        try:
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed)
            tracer.counts.clear()
            times, _, traced = run_units(workload, args.seconds, out_dir, tracer)
        finally:
            tracer.uninstall()
        tracer.save(workloads.OUT_ROOT / f"{args.workload}.spans.npz")
        outcomes += traced
        metrics = layer_metrics(tracer, len(times), times[0] - untraced[0])
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        setup_times = [setup_s] + setup_probe_times(args)
        times, references, outcomes = run_units(workload, args.seconds, out_dir, sample_host=True)
        metrics = {
            "run_ref": statistics.median(t / r for t, r in zip(times, references)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    reasons = sorted({r for o in outcomes for r in o.reasons})
    print(f"workload {args.workload}  seed {args.seed}  units {len(times)}  "
          f"BLAS threads {threads}")
    if args.trace:
        print(f"  unit 0 took {untraced[0]:.4f} s untraced, {times[0]:.4f} s traced")
    else:
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (times * 3)
        print(f"  unit wall time median {statistics.median(times):.4f} s, quartiles "
              f"{q1:.4f} .. {q3:.4f} over {len(times)} units; reference kernel median "
              f"{statistics.median(references) * 1e3:.3f} ms")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} fraction  "
          f"({failed} of {attempted}){'  ' + ', '.join(reasons) if reasons else ''}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
