"""Golden outputs: values recorded from one commit that every later run must reproduce.

A golden file maps each request key to its named output values and its
failed-unit count.  Values compare under a per-name tolerance the workload
supplies: 0 demands equality (counts), anything else is a relative bound.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 1  # the seed whose outputs the golden files hold


def path_for(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    with open(path_for(workload), encoding="utf-8") as fh:
        return json.load(fh)


def save(workload: str, seed: int, requests: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    body = {
        "workload": workload,
        "seed": seed,
        "failed_total": sum(r["failed"] for r in requests.values()),
        "requests": requests,
    }
    with open(path_for(workload), "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1, sort_keys=True)
        fh.write("\n")


def close(actual, expected, tol: float) -> bool:
    if actual is None or expected is None or isinstance(actual, str):
        return actual == expected
    if tol == 0:
        return actual == expected
    if math.isnan(expected):
        return math.isnan(actual)
    return abs(actual - expected) <= tol * max(abs(actual), abs(expected))


def mismatches(expected: dict, values: dict, failed: int, tolerance) -> list[str]:
    """Describe every way ``values``/``failed`` differ from a golden entry."""
    out = []
    if failed != expected["failed"]:
        out.append(f"failed units {failed} != golden {expected['failed']}")
    gold = expected["values"]
    for name in sorted(set(gold) | set(values)):
        if name not in values or name not in gold:
            out.append(f"{name}: present on one side only")
            continue
        tol = tolerance(name)
        if not close(values[name], gold[name], tol):
            out.append(f"{name}: {values[name]!r} != golden {gold[name]!r} (tol {tol:g})")
    return out
