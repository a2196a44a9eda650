"""The benchmark's tracer (perfbench/tracing.py) wraps gzasp functions by
looking up their names inside gzasp's modules. A rename or deletion there
breaks `perfbench/run.py --trace 1` with a KeyError, so every name it lists
must keep resolving to a callable.

The tracer is read from its source file and executed in a private
namespace; nothing under perfbench/ is imported as a package or written.
"""

from __future__ import annotations

from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing() -> dict:
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


TRACING_NAMES = _load_tracing()
HOOKS = [(module, key) for module, key, _ in TRACING_NAMES["SPANS"] + TRACING_NAMES["COUNTED"]]


@pytest.mark.parametrize("module,key", HOOKS)
def test_traced_name_resolves(module, key):
    container, entry = TRACING_NAMES["_slot"](module, key)
    assert entry in container, f"{module}: {key}"
    assert callable(container[entry])
