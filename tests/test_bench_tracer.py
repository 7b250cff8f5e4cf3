"""The benchmark's traced runs wrap package names, which must still exist.

A refactor that renames or moves one of them would silently drop its spans
from every ``--trace 1`` run of ``bench/run.py``.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_wrapped_name_resolves():
    wraps = runpy.run_path(str(TRACER))["WRAPS"]
    assert wraps
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in wraps
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
