"""Reference outputs recorded by record_refs.py, one file per workload."""

from __future__ import annotations

import json
import os

DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def path(workload: str) -> str:
    return os.path.join(DIR, f"{workload}.json")


def load(workload: str, seed: int):
    """The references of ``seed``, or None if none were recorded."""
    with open(path(workload), encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))
