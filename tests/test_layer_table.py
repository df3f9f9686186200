"""The benchmark's layer table names only functions that exist.

`perfbench/layers.py` wraps every function named in its SPANS table at
each place the nlie package binds it.  Deleting or renaming one of them
would break `perfbench/run.py --trace 1`, which only a minutes-long
benchmark run would otherwise show.  The table is read from source
without importing it as a module, so nothing is written under
perfbench/.
"""

import importlib
import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _layers():
    mod = types.ModuleType("perfbench_layers")
    mod.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), mod.__dict__)
    return mod


layers = _layers()


@pytest.mark.parametrize("span", sorted(layers.SPANS))
def test_span_resolves_to_a_bound_nlie_function(span):
    module_name, paths = layers.SPANS[span]
    importlib.import_module(module_name)
    originals = layers._originals(module_name, paths)
    assert len(originals) == len(paths)
    for path, fn in zip(paths, originals):
        assert isinstance(fn, types.FunctionType), (span, path)
        assert fn.__module__ == module_name, (span, path)
        assert layers._bindings(fn), (span, path)
