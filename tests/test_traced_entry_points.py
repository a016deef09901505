"""Every entry point the benchmark's traced run wraps exists in polysteer.

`perfbench/tracing.py` looks up each name in its ENTRY_POINTS with getattr
on the polysteer module of that layer, and a dotted name as a method defined
on the class itself. A rename or deletion in the program would crash a
traced run (`perfbench/run.py --trace 1`); this test fails first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """Import tracing.py from its path without writing a bytecode cache."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_entry_point_resolves():
    missing = []
    for layer, names in load_tracing().ENTRY_POINTS.items():
        home = importlib.import_module(f"polysteer.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                found = meth in vars(getattr(home, cls_name, object))
            else:
                found = callable(getattr(home, name, None))
            if not found:
                missing.append(f"{layer}.{name}")
    assert not missing, f"traced entry points missing from polysteer: {missing}"
