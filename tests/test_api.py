"""Every exported name and every benchmark-traced function resolves."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pcmselect

MODULES = sorted(m.name for m in pkgutil.iter_modules(pcmselect.__path__))
TRACER = Path(__file__).resolve().parents[1] / "pcmbench" / "tracer.py"


def resolve(owner, dotted: str):
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"pcmselect.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"pcmselect.{name}.__all__ names undefined {missing}"


def test_package_exports_resolve():
    missing = [n for n in pcmselect.__all__ if not hasattr(pcmselect, n)]
    assert not missing, f"pcmselect.__all__ names undefined {missing}"


def traced_functions() -> list[tuple[str, str]]:
    """The (module, qualified name) pairs of ``ENTRY_POINTS + LAYERS`` in the tracer."""
    pairs = []
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("ENTRY_POINTS", "LAYERS")
                for t in node.targets):
            pairs.extend(ast.literal_eval(node.value))
    return pairs


def test_traced_functions_resolve():
    pairs = traced_functions()
    assert len(pairs) > 2, "ENTRY_POINTS and LAYERS not found in the tracer"
    missing = []
    for module, qualname in pairs:
        try:
            fn = resolve(importlib.import_module(f"pcmselect.{module}"), qualname)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{qualname}")
            continue
        assert callable(fn), f"{module}.{qualname} is not callable"
    assert not missing, f"the benchmark traces functions that do not exist: {missing}"
