"""The per-layer tracer in perfbench/tracing.py still finds every name it wraps.

The tracer patches heterosim functions and methods by name, so deleting or
renaming one of them breaks traced benchmark runs; this fails first.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves():
    tracing = load_tracing()
    missing = []
    for name, module_name, class_name, attribute, _kind in tracing.PATCHES:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name, None) if class_name else module
        if owner is None or attribute not in vars(owner):
            missing.append(f"{name}: {module_name}.{class_name or ''}.{attribute}")
    assert missing == []


def test_install_then_restore_leaves_nothing_behind():
    tracer = load_tracing().Tracer()
    tracer.install()
    assert tracer.restore() == []
