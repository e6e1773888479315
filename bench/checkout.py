"""Locate the engine and the reference interpreter in the checkout.

The benchmark lives beside the code it measures and imports it from source:
``src/`` for the engine, ``tests/`` for the independent reference
interpreter, ``demos/`` for the shipped programs and goldens.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
DEMOS = ROOT / "demos"
OUT = ROOT / ".bench_out"

_NEEDED = (SRC / "instants" / "__init__.py", TESTS / "reference.py", DEMOS / "keypad.rx")


def use_sources() -> None:
    """Put the checkout's engine and reference interpreter first on the
    import path, or exit with code 2 when the checkout lacks them."""
    missing = [str(path.relative_to(ROOT)) for path in _NEEDED if not path.is_file()]
    if missing:
        print(f"bench: checkout is missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)
    for path in (TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
