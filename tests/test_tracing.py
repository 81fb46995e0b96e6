"""The benchmark's trace targets exist in the package.

``benchmarks/tracing.py`` wraps functions by module and attribute name, so a
renamed or deleted function would silently drop its spans.  The file is run
from its source, never imported as a module, so nothing is written beside it.
"""

import importlib
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_attribute_resolves():
    traced = runpy.run_path(str(ROOT / "benchmarks" / "tracing.py"))["TRACED"]
    assert traced
    for mod_name, attr, span, _ in traced:
        owner = importlib.import_module(f"tarskilab.{mod_name}")
        *classes, name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        # the tracer reads methods from the class dict, module functions by name
        fn = owner.__dict__[name] if classes else getattr(owner, name)
        assert callable(getattr(fn, "__func__", fn)), (mod_name, attr, span)
