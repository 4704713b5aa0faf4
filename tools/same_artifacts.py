"""Check that two source trees write the same artifacts.

Runs ``robustpi run`` on the three bundled configs and ``robustpi oracle``
on ``scalar_lqr.cfg`` in a parent tree and a change tree, each with
``--out-dir`` under a temporary directory.  A fifth case runs ``arm.cfg``
with ``[exploration] seed = 10``, an excitation that fails the PE check, so
the error record of a failed run is compared too; each tree's edited config
is written to the temporary directory.  The tool then compares each pair of
output directories with `rundiff.compare_runs` and byte for byte.  A file
differs when it is in one run only, when a number differs by more than
``--rtol`` relative (numbers in ``.csv``, ``.json`` and ``.txt`` files;
a word or any other file must match exactly), or, at ``--rtol 0`` (the
default), when its bytes differ at all.  The exit codes of the two sides must also match.

    python3 tools/same_artifacts.py --parent ../parent --change . [--rtol R]

Exits 0 when nothing differs and 1 otherwise.  Each tree runs from its own
`src/`; the comparison uses this tree's `robustpi.rundiff`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from robustpi.rundiff import compare_runs  # noqa: E402

CASES = (
    ("run", "arm.cfg"),
    ("run", "cascade_unmatched.cfg"),
    ("run", "scalar_lqr.cfg"),
    ("oracle", "scalar_lqr.cfg"),
)
# (command, bundled config, {(section, key): value} set in a copy of the config)
EDITED_CASES = (
    ("run", "arm.cfg", {("exploration", "seed"): "10"}),  # exits with PEViolation
)
CLI = "import sys; from robustpi.harness import cli; sys.exit(cli(sys.argv[1:]))"


def edited_config(text: str, edits: dict) -> str:
    """The config `text` with each `key` line of its `[section]` set to `value`."""
    lines = text.splitlines(keepends=True)
    section = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("["):
            section = stripped.strip("[]")
        key = stripped.partition("=")[0].strip()
        if (section, key) in edits:
            lines[i] = f"{key} = {edits[section, key]}\n"
    return "".join(lines)


def run_case(tree: Path, command: str, config: str, edits: dict, out: Path) -> int:
    """`robustpi COMMAND CONFIG --out-dir OUT` on the tree's own src/; its exit code.

    With `edits`, CONFIG is the tree's config edited and written next to OUT.
    """
    cfg = tree / "src" / "robustpi" / "configs" / config
    if edits:
        text = edited_config(cfg.read_text(), edits)
        cfg = out.with_suffix(".cfg")
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-c", CLI, command, str(cfg), "--out-dir", str(out)]
    return subprocess.run(argv, env=env, capture_output=True).returncode


def differing_files(out_a: Path, out_b: Path, rtol: float) -> dict:
    """{file name: reason} for the files of two output directories that differ."""
    if not (out_a.is_dir() and out_b.is_dir()):
        return {} if out_a.is_dir() == out_b.is_dir() else {"(directory)": "in one run only"}
    found = {}
    for name, gap in compare_runs(out_a, out_b).items():
        if gap is None:
            found[name] = "in one run only"
        elif gap > rtol:
            found[name] = f"largest relative difference {gap:.3e}"
        elif rtol == 0 and (out_a / name).read_bytes() != (out_b / name).read_bytes():
            found[name] = "bytes differ"
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the reference tree")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    parser.add_argument(
        "--rtol", type=float, default=0.0,
        help="relative tolerance on numbers (default 0: byte-identical files)",
    )
    args = parser.parse_args(argv)
    if not args.rtol >= 0:
        parser.error("rtol must be nonnegative")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "src" / "robustpi").is_dir():
            parser.error(f"{side} tree {tree} has no src/robustpi")

    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_artifacts_") as tmp:
        cases = [(command, config, {}) for command, config in CASES] + list(EDITED_CASES)
        for k, (command, config, edits) in enumerate(cases):
            label = " ".join(
                [command, config, *(f"[{s}] {key} = {v}" for (s, key), v in edits.items())]
            )
            outs, codes = {}, {}
            for side, tree in trees.items():
                outs[side] = Path(tmp) / side / f"{k}_{command}_{Path(config).stem}"
                codes[side] = run_case(tree, command, config, edits, outs[side])
            found = differing_files(outs["change"], outs["parent"], args.rtol)
            if codes["parent"] != codes["change"]:
                found["(exit code)"] = f"parent {codes['parent']}, change {codes['change']}"
            for name, reason in found.items():
                print(f"{label}: {name}: {reason}")
            n_files = len(list(outs["parent"].iterdir())) if outs["parent"].is_dir() else 0
            status = "DIFFERS" if found else "same"
            print(f"{label}: {status} ({n_files} files, exit {codes['parent']})", flush=True)
            failed += bool(found)
    print(f"{failed} of {len(cases)} cases differ (rtol {args.rtol:g})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
