"""Regenerate perfbench/arm_certified.json from one arm pipeline run.

The certify_bundle workload rebuilds the certified arm loop from this file
instead of learning it again.  It holds the learned policy, the
model-based value it is certified against, the selected rho, the certified
level d and the tabulated level-shaping function sigma.

Run from the repository root (takes about half a minute):

    python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from robustpi import harness, robust  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    config = harness.load_config(workloads.CONFIG_DIR / "arm.cfg")
    config.out_dir = str(workloads.OUT_ROOT / "fixture")
    run = harness.run_algorithm_1(config)
    rr = run.robust_report
    ladder = robust.log_ladder(2.0 * rr["certified_d"])
    fixture = {
        "source": "run_algorithm_1 on arm.cfg",
        "exploration_seed": config.exploration_seed,
        "learned_policy": run.pi_result.final_policy.to_dict(),
        "value_star": rr["value_star"].to_dict(),
        "rho": rr["rho"],
        "margin": rr["margin"],
        "s_max": config.s_max,
        "certified_d": rr["certified_d"],
        "sigma_level": rr["sigma_level"],
        "sigma_ladder": ladder.tolist(),
        "sigma_values": np.asarray(rr["sigma"](ladder)).tolist(),
    }
    loop = workloads.CertifiedLoop.from_fixture(fixture, harness._build_system(config))
    probe = np.geomspace(1e-6, 3.0, 25)
    assert np.array_equal(loop.chi1(probe), rr["chi1"](probe)), "chi1 not reproduced"
    assert loop.roa.level == rr["sigma_level"], "sigma level not reproduced"
    path = HERE / "arm_certified.json"
    path.write_text(json.dumps(fixture, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
