"""The benchmark's tracer still finds every package boundary it wraps.

``perfbench/tracing.py`` patches 36 names of the package by module path
and raises for a name that is bound nowhere, so renaming or deleting one
of them breaks every benchmark run. This test installs the tracer as the
benchmark does, without editing it, and checks that each boundary was
patched and that uninstalling restores every original binding.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import scipy.optimize

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _bindings(boundaries) -> dict:
    """Every value bound in a package module namespace or a traced class."""
    for b in boundaries:
        importlib.import_module(b.module)
    out = {("linprog",): scipy.optimize.linprog}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "smoothmpc" or name.startswith("smoothmpc.")):
            out.update({(name, key): val for key, val in vars(mod).items()})
    for b in boundaries:
        if b.cls is not None:
            owner = getattr(sys.modules[b.module], b.cls)
            out[(b.module, b.cls, b.attr)] = owner.__dict__[b.attr]
    return out


def _function(b):
    """The boundary's function as its module or class now binds it."""
    mod = sys.modules[b.module]
    if b.cls is None:
        return getattr(mod, b.attr)
    raw = getattr(mod, b.cls).__dict__[b.attr]
    return getattr(raw, "__func__", raw)


def test_tracer_patches_every_boundary_and_restores_them():
    tracing = _load_tracing()
    boundaries = tracing.BOUNDARIES
    assert len(boundaries) == 36
    before = _bindings(boundaries)
    originals = {b.name: _function(b) for b in boundaries}
    tracer = tracing.Tracer().install()
    try:
        unpatched = [b.name for b in boundaries
                     if getattr(_function(b), "__wrapped__", None) is not originals[b.name]]
    finally:
        tracer.uninstall()
    assert unpatched == []
    after = _bindings(boundaries)
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []
