"""The traced benchmark's hooks still name real attributes of setseq.

bench/tracing.py wraps library functions by name; a rename in src that
leaves a stale name there breaks the traced benchmark.  This test only
imports bench/tracing.py and reads its tables.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_every_span_hook_resolves():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name, _extract in tracing.SPANS
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing


def test_every_counter_hook_is_owned():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _name in tracing.COUNTERS
        if attr not in owner.__dict__
    ]
    assert not missing
