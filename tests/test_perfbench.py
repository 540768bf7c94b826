"""The benchmark's tracer patches functions by name; every name must exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _ in tracing.TRACED
        if not hasattr(module, name)
    ]
    assert tracing.TRACED
    assert not missing, f"traced names missing from the package: {missing}"
