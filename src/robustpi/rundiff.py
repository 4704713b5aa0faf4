"""Numeric comparison of two run directories (`robustpi diff`).

Numbers in `.csv`, `.json` and `.txt` artifacts match when
|a - b| <= rtol * |b|, so rtol = 0 asks for exact equality; every other
value (header, key, word, string, bool, shape) must be equal, and any
other file must be byte-identical.  A `.txt` file is read as tokens
split on whitespace, each run of whitespace being a token that must
match.  A change that reorders floating point can then be measured
against a golden run instead of failing a byte comparison.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from .errors import ConfigParse


def relative_gap(a: float, b: float) -> float:
    """|a - b| / |b|; 0 for equal values (NaN equals NaN), inf where no
    rtol can cover the difference (b = 0, or a non-finite difference)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    gap = abs(a - b)
    if not math.isfinite(gap) or b == 0:
        return math.inf
    return gap / abs(b)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _largest_gap(a, b) -> float:
    """Largest relative gap between two parsed artifacts; inf when they
    differ in anything but the value of a number."""
    if _is_number(a) and _is_number(b):
        return relative_gap(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((_largest_gap(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max(map(_largest_gap, a, b), default=0.0)
    return 0.0 if type(a) is type(b) and a == b else math.inf


def _cell(token: str):
    try:
        return float(token)
    except ValueError:
        return token


def _parse(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".txt":
        return [_cell(tok) for tok in re.split(r"(\s+)", text)]
    return [[_cell(tok) for tok in line.split(",")] for line in text.splitlines()]


def file_gap(path_a: Path, path_b: Path) -> float:
    """Largest relative difference between two artifacts of one name."""
    bytes_a, bytes_b = path_a.read_bytes(), path_b.read_bytes()
    if bytes_a == bytes_b:
        return 0.0
    if path_a.suffix not in (".csv", ".json", ".txt"):
        return math.inf
    try:
        return _largest_gap(_parse(path_a), _parse(path_b))
    except ValueError:  # not valid JSON or UTF-8: the bytes already differ
        return math.inf


def compare_runs(run_a, run_b) -> dict:
    """{file name: largest relative difference} over both directories,
    RUN_B being the reference; None for a file found in only one."""
    runs = (Path(run_a), Path(run_b))
    names = []
    for run in runs:
        if not run.is_dir():
            raise ConfigParse(f"no run directory {run}")
        names.append({p.name for p in run.iterdir() if p.is_file()})
    gaps = dict.fromkeys(names[0] ^ names[1])
    for name in names[0] & names[1]:
        gaps[name] = file_gap(runs[0] / name, runs[1] / name)
    return dict(sorted(gaps.items()))
