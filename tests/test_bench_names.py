"""Every name the package exports, and every call site the benchmark's
traced run wraps, still exists: deleting one breaks `--trace 1`."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import schmidtgame

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ["schmidtgame"] + ["schmidtgame." + m.name for m in
                             pkgutil.iter_modules(schmidtgame.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_traced_call_sites_exist():
    # spans.py imports only the standard library, so it loads by path
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    pkg = SimpleNamespace(**{m: importlib.import_module("schmidtgame." + m)
                             for m in ("cli", "game", "fractal", "alice",
                                       "bob", "certify", "numerics")})
    targets = spans.patch_targets(pkg)
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
