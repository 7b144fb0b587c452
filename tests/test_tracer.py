"""The perfbench tracer wraps library functions by name; every name must exist.

`perfbench/tracer.py` finds each wrapped function as an attribute of its
module or class, so a rename or deletion in `src/` would otherwise show
only when a traced benchmark runs.  The tracer module is loaded from its
file and nothing is installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_resolves_in_its_owner():
    missing = []
    for name, (layer, owner, attributes) in _tracer().WRAPPED.items():
        home = importlib.import_module(f"rrcalc.{layer}")
        if owner is not None:
            home = vars(home)[owner]
        missing += [f"{name}: {a}" for a in attributes if a not in vars(home)]
    assert missing == []
