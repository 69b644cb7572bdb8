"""The traced benchmark harness binds package entry points by name. Every
(module, attribute path) it wraps must resolve, so a rename that would stop
`perfbench/run.py --trace 1` fails here first."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    # executed from source, so no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "modname, path",
    [(entry[1], entry[2]) for entry in tracing.SPANS + tracing.COUNTS],
)
def test_traced_entry_point_resolves(modname, path):
    # the same lookup as Tracer._install_one: attributes down the path, the
    # last one from the owner's own namespace
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[attr])
