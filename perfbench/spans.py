"""Layer spans recorded from outside the package.

`Tracer.install` replaces each traced public function of robustpi at every
name it is bound to (module globals and class attributes) with a wrapper
that records one span: name, parent span, start, end and the operation it
belongs to.  Spans stay in flat in-memory arrays; `Tracer.save` writes them
once, after the last operation.  `Tracer.uninstall` puts the originals back,
so one process can time an operation untraced and then traced.

Nothing under src/ is edited: the wrappers call the original function with
the original arguments and return its result unchanged.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from functools import update_wrapper
from pathlib import Path

import numpy as np


def _count_integrate(counts, args, kwargs, result):
    counts["dynsys.integrate.steps"] += len(result.trajectory.t) - 1


def _count_simulate_batch(counts, args, kwargs, result):
    ts, xs = result[0], result[1]
    counts["dynsys.simulate_batch.traj_steps"] += (len(ts) - 1) * xs.shape[1]


def _count_design_matrix(counts, args, kwargs, result):
    counts["basis.design_matrix.rows"] += result.shape[0]


def _count_online_iterations(counts, args, kwargs, result):
    counts["online_pi.iterations"] += len(result.iterates)


def _count_oracle_iterations(counts, args, kwargs, result):
    counts["pi_oracle.iterations"] += len(result)


def _count_rho_candidates(counts, args, kwargs, result):
    ladder = np.asarray(args[0], dtype=float)
    counts["robust.select_rho.candidates"] += int(np.flatnonzero(ladder == result[0])[0]) + 1


def _count_saved_bytes(counts, args, kwargs, result):
    counts["harness.save.bytes"] += sum(p.stat().st_size for p in Path(result).iterdir())


# (owner module, attribute path, span name, counter) for every traced
# public function.  A module-level function is replaced wherever a loaded
# robustpi module binds it; a method is replaced on its class.
TRACED = (
    ("robustpi.harness", "load_config", "harness.load_config", None),
    ("robustpi.harness", "run_algorithm_1", "harness.run_algorithm_1", None),
    ("robustpi.harness", "LearningRun.save", "harness.save", _count_saved_bytes),
    ("robustpi.dynsys", "integrate", "dynsys.integrate", _count_integrate),
    ("robustpi.dynsys", "simulate_batch", "dynsys.simulate_batch", _count_simulate_batch),
    ("robustpi.dynsys", "lipschitz_probe", "dynsys.lipschitz_probe", None),
    ("robustpi.basis", "BasisSet.design_matrix", "basis.design_matrix", _count_design_matrix),
    ("robustpi.basis", "BasisSet.gradient_tensor", "basis.gradient_tensor", None),
    ("robustpi.online_pi", "run_online_pi", "online_pi.run_online_pi", _count_online_iterations),
    ("robustpi.online_pi", "assemble_regression", "online_pi.assemble_regression", None),
    ("robustpi.online_pi", "solve_pi_step", "online_pi.solve_pi_step", None),
    ("robustpi.pi_oracle", "run_policy_iteration", "pi_oracle.run_policy_iteration",
     _count_oracle_iterations),
    ("robustpi.pi_oracle", "policy_evaluation_collocation",
     "pi_oracle.policy_evaluation_collocation", None),
    ("robustpi.pi_oracle", "probe_admissibility", "pi_oracle.probe_admissibility", None),
    ("robustpi.robust", "ClassKFunction.inverse", "robust.inverse", None),
    ("robustpi.robust", "select_rho", "robust.select_rho", _count_rho_candidates),
    ("robustpi.robust", "interconnection_sigma", "robust.interconnection_sigma", None),
    ("robustpi.robust", "certify_error_bound", "robust.certify_error_bound", None),
    ("robustpi.robust", "radial_envelopes", "robust.radial_envelopes", None),
    ("robustpi.robust", "estimate_roa", "robust.roa", None),
    ("robustpi.robust", "RegionEstimate.w_bound", "robust.roa", None),
    ("robustpi.robust", "RegionEstimate.boundary_points", "robust.roa", None),
    ("robustpi.backstep", "phase_one", "backstep.phase_one", None),
    ("robustpi.backstep", "assemble_phase_two", "backstep.assemble_phase_two", None),
    ("robustpi.backstep", "solve_phase_two", "backstep.solve_phase_two", None),
    ("robustpi.backstep", "check_small_gain_cascade", "backstep.check_small_gain_cascade", None),
    ("robustpi.experiments", "cost_surface_compare", "experiments.cost_surface_compare", None),
    ("robustpi.experiments", "speed_profile_analysis", "experiments.speed_profile_analysis",
     None),
)

# Where the benchmark expects each module-level function to be bound; a
# binding that disappears means a refactor moved a call site, and the
# trace would silently miss it.
EXPECTED_BINDINGS = {
    "integrate": {"robustpi", "robustpi.dynsys", "robustpi.harness", "robustpi.pi_oracle"},
    "run_online_pi": {"robustpi", "robustpi.online_pi", "robustpi.backstep"},
}


class Tracer:
    """In-memory span recorder plus per-name counters."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts = defaultdict(float)
        self.current_op = -1
        self._stack = [-1]
        self._patched: list = []
        self.bindings: dict = {}

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.t0)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.t1.append(float("nan"))
        self._stack.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.t1[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counter=None):
        calls_key = name + ".calls"

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[calls_key] += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return update_wrapper(wrapper, fn)

    def count_points(self, name: str, fn):
        """Span around a gain callable, counting the points it is evaluated at."""
        wrapped = self.wrap(name, fn)
        points_key = name + ".points"

        def counted(s):
            self.counts[points_key] += np.size(s)
            return wrapped(s)

        return counted

    # -- installing ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, modules: dict, module_name: str, path: str, make_wrapper) -> list:
        """Replace a method on its class, or a function at every module binding it."""
        owner = modules[module_name]
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        if cls_path:
            self._set(owner, attr, wrapper)
            return [module_name]
        bound = []
        for mod_name, mod in sorted(modules.items()):
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapper)
                bound.append(mod_name)
        return bound

    def _chi_counting(self, build):
        """build_chi_pair whose chi1 counts the points it is evaluated at."""

        def build_counted(*args, **kwargs):
            chi1, chi2 = build(*args, **kwargs)
            chi1.fn = self.count_points("robust.chi1", chi1.fn)
            return chi1, chi2

        return update_wrapper(build_counted, build)

    def install(self) -> None:
        """Wrap every function in TRACED at each place it is bound."""
        import robustpi.harness  # noqa: F401  (loads every layer module)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "robustpi" or name.startswith("robustpi.")
        }
        for module_name, path, span, counter in TRACED:
            self.bindings[path] = self._replace(
                modules, module_name, path, lambda fn: self.wrap(span, fn, counter)
            )
        self.bindings["build_chi_pair"] = self._replace(
            modules, "robustpi.robust", "build_chi_pair", self._chi_counting
        )
        for attr, expected in EXPECTED_BINDINGS.items():
            missing = expected - set(self.bindings[attr])
            if missing:
                raise RuntimeError(f"{attr} is no longer bound in {sorted(missing)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def durations(self) -> tuple:
        """Per span: (duration, self time, name id, op), as arrays.

        Self time is the duration minus the durations of the direct
        children; children never overlap, the program being single-threaded.
        """
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return dur, dur - child, a["name_id"], a["op"]

    def save(self, path: Path) -> None:
        """Write every span once, with the name table, as a compressed archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
